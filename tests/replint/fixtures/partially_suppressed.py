"""Suppression fixture: one violation suppressed, one left to fire."""

import random


def silenced():
    return random.random()  # replint: disable=REP001 — demo of a justified pragma


def still_fires():
    return random.random()


def wrong_code_does_not_help():
    return random.random()  # replint: disable=REP003 — wrong code on purpose

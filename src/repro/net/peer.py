"""A live ACE peer: one asyncio endpoint speaking the wire protocol.

Each :class:`LivePeer` owns

* a listening socket (``asyncio.start_server``) with one reader task per
  accepted connection,
* an outbound connection pool (dial on demand, retry with backoff, mark
  peers dead on failure),
* a :class:`repro.sim.node.Servent` — the simulator's own GUID dedup,
  reverse-path QueryHits and flooding-set forwarding — fed *logical*
  timestamps carried in the frame envelopes, its sends written to sockets,
  and
* the ACE turn: on an :class:`~repro.net.wire.OptimizeTurn` token it runs
  the shared per-peer procedure of :mod:`repro.core.turn` in a worker
  thread against a :class:`TurnView`, whose every read is a live protocol
  exchange (``CostProbe`` for costs, ``GetTable``/``CostTableMessage`` for
  remote tables, ``ConnectRequest``/``DisconnectNotice`` for mutations).

The peer knows only what the protocol lets it know: its own neighbor set,
its cost row (what its probes measure), and whatever tables its RPCs
fetch.  There is no back door to a shared overlay object — the
convergence with the simulator is earned over the wire.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from typing import Awaitable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core.ace import AceConfig
from ..core.closure import neighbor_closure
from ..core.policies import make_policy
from ..core.turn import Turn, forwarding_set, phase1, phase2, phase3
from ..perf import counters
from ..sim.messages import (
    ConnectRequest,
    CostProbe,
    CostProbeReply,
    CostTableMessage,
    DisconnectNotice,
    Message,
    Query,
    QueryHit,
)
from ..sim.node import Sends, Servent
from .runtime import DeliveryCoordinator, NetConfig, PeerUnreachable, TrafficLedger
from .wire import (
    ConnectAck,
    Envelope,
    FrameAssembler,
    GetTable,
    Hello,
    OptimizeTurn,
    Shutdown,
    TurnDone,
    Welcome,
    encode_frame,
)

__all__ = ["LivePeer", "TurnView", "serialize_rng", "restore_rng"]

#: Data-plane descriptor types (scheduled by the delivery coordinator and
#: charged to the traffic ledger); everything else is control plane.
_DATA_TYPES = (Query, QueryHit)


class _Connection:
    """One open socket to a remote peer: writer plus its reader task."""

    def __init__(self, remote: int, reader, writer) -> None:
        self.remote = remote
        self.reader = reader
        self.writer = writer
        self.task: Optional[asyncio.Task] = None
        self.closed = False

    async def send(self, data: bytes) -> None:
        if self.closed:
            raise ConnectionError(f"connection to {self.remote} is closed")
        self.writer.write(data)
        await self.writer.drain()

    def close(self) -> None:
        self.closed = True
        try:
            self.writer.close()
        except Exception:
            pass


class LivePeer:
    """One live endpoint running the ACE servent over real sockets."""

    def __init__(
        self,
        peer_id: int,
        net: NetConfig,
        coordinator: DeliveryCoordinator,
        ledger: TrafficLedger,
    ) -> None:
        self.peer_id = peer_id
        self.net = net
        self.coord = coordinator
        self.ledger = ledger

        self.host = net.host
        self.port = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: Dict[int, _Connection] = {}
        self._anon_tasks: Set[asyncio.Task] = set()

        # -- membership / topology knowledge ---------------------------
        self.members: List[int] = []
        self.addresses: Dict[int, Tuple[str, int]] = {}
        self.assigned_neighbors: Tuple[int, ...] = ()
        self.neighbors: Set[int] = set()
        self.cost_row: Dict[int, float] = {}
        self.dead: Set[int] = set()

        # -- ACE state --------------------------------------------------
        self.ace_config = AceConfig()
        self.shed_floor = self.ace_config.min_degree
        self._policy = make_policy(self.ace_config.policy)
        self._flooding: Optional[FrozenSet[int]] = None
        self._known: Optional[FrozenSet[int]] = None

        # -- servent (the simulator's, driven over sockets) -------------
        self.servent = Servent(peer_id)
        #: guid -> wall-clock time of the first QueryHit at the origin.
        self.first_hit_walltime: Dict[int, float] = {}
        self._query_start_wall: Dict[int, float] = {}

        # -- RPC plumbing -----------------------------------------------
        self._rpc_seq = 0
        self._rpc_waiters: Dict[int, asyncio.Future] = {}
        self.stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Open the listening socket (the OS picks the port)."""
        self._server = await asyncio.start_server(
            self._accept, host=self.host, port=0
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Orderly shutdown: :meth:`kill`, then wait for the listener to close."""
        server = self._server
        self.kill()
        if server is not None:
            await server.wait_closed()

    def kill(self) -> None:
        """Simulated crash: drop everything immediately, no goodbyes."""
        if self._server is not None:
            self._server.close()
            self._server = None
        for conn in list(self._conns.values()):
            conn.close()
            if conn.task is not None:
                conn.task.cancel()
        self._conns.clear()
        for task in list(self._anon_tasks):
            task.cancel()
        self.stopped.set()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def _accept(self, reader, writer) -> None:
        conn = _Connection(-1, reader, writer)
        conn.task = asyncio.get_running_loop().create_task(
            self._read_loop(conn)
        )

    async def connect_to(self, remote: int) -> _Connection:
        """Dial *remote*, retrying per config; registers the connection."""
        existing = self._conns.get(remote)
        if existing is not None and not existing.closed:
            return existing
        if remote in self.dead:
            raise PeerUnreachable(f"peer {remote} is marked dead")
        host, port = self.addresses[remote]
        last_error: Optional[Exception] = None
        for attempt in range(self.net.max_retries + 1):
            if attempt > 0:
                counters.net_retries += 1
                await asyncio.sleep(self.net.retry_delay * attempt)
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port),
                    self.net.connect_timeout,
                )
            except (OSError, asyncio.TimeoutError) as exc:
                last_error = exc
                continue
            conn = _Connection(remote, reader, writer)
            conn.task = asyncio.get_running_loop().create_task(
                self._read_loop(conn)
            )
            self._conns[remote] = conn
            counters.net_connections += 1
            await self._send_control(
                conn, Hello(peer=self.peer_id, host=self.host, port=self.port),
                Envelope(src=self.peer_id, dst=remote),
            )
            return conn
        self._mark_dead(remote)
        raise PeerUnreachable(f"cannot reach peer {remote}: {last_error}")

    def _mark_dead(self, remote: int) -> None:
        """Give up on *remote*: no more dials, and the overlay link is gone.

        A servent notices a dropped TCP connection, so a dead neighbor
        leaves the forwarding set and the cost tables this peer hands out.
        """
        self.dead.add(remote)
        self.neighbors.discard(remote)

    def _drop_conn(self, conn: _Connection) -> None:
        conn.close()
        if conn.remote >= 0 and self._conns.get(conn.remote) is conn:
            del self._conns[conn.remote]

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    async def _send_control(
        self, conn: _Connection, message: object, env: Envelope
    ) -> None:
        data = encode_frame(message, env)
        counters.net_messages_sent += 1
        counters.net_bytes_sent += len(data)
        await conn.send(data)

    async def send_data(self, dst: int, message: Message, ltime: float) -> bool:
        """Transmit a data descriptor (charged at send, like the simulator).

        Returns ``False`` when the destination is unreachable — the live
        analogue of the simulator refusing to send over a dead link.  The
        charge is only recorded for frames that actually left.
        """
        if dst in self.dead:
            return False
        seq = self.coord.next_seq()
        env = Envelope(src=self.peer_id, dst=dst, ltime=ltime, seq=seq)
        data = encode_frame(message, env)
        self.coord.will_send()
        try:
            conn = await self.connect_to(dst)
            await conn.send(data)
        except (ConnectionError, OSError, PeerUnreachable):
            self.coord.abort_send()
            self._mark_dead(dst)
            return False
        counters.net_messages_sent += 1
        counters.net_bytes_sent += len(data)
        self.ledger.record(seq, message.kind, self.cost_row[dst], len(data))
        return True

    async def rpc(
        self,
        dst: int,
        message: object,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> Tuple[object, Envelope]:
        """Control-plane request/response with timeout + retry.

        Retries reopen the connection (the remote may have restarted a
        socket) and are counted in ``net_retries``; exhausting them marks
        the peer dead and raises :class:`PeerUnreachable`.  Pass
        ``retries=0`` for non-idempotent requests (a re-sent optimization
        turn would mutate twice).
        """
        timeout = self.net.rpc_timeout if timeout is None else timeout
        retries = self.net.max_retries if retries is None else retries
        last_error: Optional[Exception] = None
        for attempt in range(retries + 1):
            if attempt > 0:
                counters.net_retries += 1
            self._rpc_seq += 1
            rpc_id = self._rpc_seq
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._rpc_waiters[rpc_id] = future
            env = Envelope(src=self.peer_id, dst=dst, rpc=rpc_id)
            try:
                conn = await self.connect_to(dst)
                await self._send_control(conn, message, env)
                return await asyncio.wait_for(future, timeout)
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                last_error = exc
                conn = self._conns.get(dst)
                if conn is not None:
                    self._drop_conn(conn)
                continue
            except PeerUnreachable as exc:
                last_error = exc
                break
            finally:
                self._rpc_waiters.pop(rpc_id, None)
        self._mark_dead(dst)
        raise PeerUnreachable(f"rpc to peer {dst} failed: {last_error}")

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    async def _read_loop(self, conn: _Connection) -> None:
        assembler = FrameAssembler()
        try:
            while True:
                data = await conn.reader.read(65536)
                if not data:
                    break
                for message, env in assembler.feed(data):
                    await self._handle_frame(conn, message, env)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._drop_conn(conn)

    async def _handle_frame(
        self, conn: _Connection, message: object, env: Envelope
    ) -> None:
        if env.reply is not None:
            waiter = self._rpc_waiters.get(env.reply)
            if waiter is not None and not waiter.done():
                waiter.set_result((message, env))
            return
        if isinstance(message, Hello):
            conn.remote = message.peer
            self._conns.setdefault(message.peer, conn)
            await self.on_hello(conn, message, env)
            return
        if isinstance(message, _DATA_TYPES):
            self.coord.on_frame(
                env.ltime, env.seq, self._data_handler(message, env)
            )
            return
        if isinstance(message, Shutdown):
            self.stopped.set()
            return
        if isinstance(message, OptimizeTurn):
            # Served in a detached task so this reader keeps answering
            # probes from the peers the turn itself is querying.
            task = asyncio.get_running_loop().create_task(
                self._serve_turn(conn, message, env)
            )
            self._anon_tasks.add(task)
            task.add_done_callback(self._anon_tasks.discard)
            return
        result = self.handle_request(message, env)
        if result is not None and env.rpc is not None:
            reply, reply_ltime = result
            await self._send_control(
                conn, reply,
                Envelope(
                    src=self.peer_id, dst=env.src,
                    ltime=reply_ltime, reply=env.rpc,
                ),
            )

    async def on_hello(
        self, conn: _Connection, hello: Hello, env: Envelope
    ) -> None:
        """Hook for the seed subclass; plain peers just bind the id."""

    def handle_request(
        self, message: object, env: Envelope
    ) -> Optional[Tuple[object, float]]:
        """Answer one control-plane request.

        Returns ``(reply, reply_ltime)`` or ``None`` for no reply.  A
        probe reply's logical timestamp carries the link delay — the probe
        *measures* the configured underlay delay, as a timestamped ping
        would, and the prober reads it off the reply envelope.
        """
        if isinstance(message, CostProbe):
            return (
                CostProbeReply(sender=self.peer_id, target=self.peer_id),
                self.cost_row.get(env.src, 0.0),
            )
        if isinstance(message, GetTable):
            entries = tuple(
                (n, self.cost_row[n]) for n in sorted(self.neighbors)
            )
            return (
                CostTableMessage(sender=self.peer_id, entries=entries), 0.0
            )
        if isinstance(message, ConnectRequest):
            self.neighbors.add(env.src)
            return (ConnectAck(accepted=True), 0.0)
        if isinstance(message, DisconnectNotice):
            self.neighbors.discard(env.src)
            return (ConnectAck(accepted=True), 0.0)
        return None

    async def bootstrap_connect(self, other: int) -> bool:
        """Establish the overlay edge to *other* (the connect handshake)."""
        reply, _env = await self.rpc(
            other, ConnectRequest(sender=self.peer_id, target=other)
        )
        if not getattr(reply, "accepted", False):
            return False
        self.neighbors.add(other)
        return True

    # ------------------------------------------------------------------
    # Servent transport (repro.sim.node.Servent over the wire)
    # ------------------------------------------------------------------

    def _routes(self) -> Iterable[int]:
        """This peer's current forwarding set (the shared routing rule)."""
        yield from sorted(
            forwarding_set(set(self.neighbors), self._flooding, self._known)
        )

    async def _send_all(self, sends: Sends, now: float) -> None:
        for dst, message in sends:
            await self.send_data(dst, message, ltime=now + self.cost_row[dst])

    def _data_handler(self, message: Message, env: Envelope):
        async def handle() -> None:
            servent, now = self.servent, env.ltime
            if isinstance(message, Query):
                sends = servent.on_query(message, env.src, now, self._routes())
            else:
                guid = message.guid
                if guid in servent.responses and not servent.responses[guid]:
                    self.first_hit_walltime[guid] = (
                        asyncio.get_running_loop().time()
                        - self._query_start_wall.get(guid, 0.0)
                    )
                sends = servent.on_query_hit(message, now)
            await self._send_all(sends, now)
        return handle

    async def start_query(self, obj: object, ttl: Optional[int]) -> Query:
        """Originate a query at logical time 0 and put its copies on the wire."""
        query, sends = self.servent.originate(obj, ttl, 0.0, self._routes())
        self._query_start_wall[query.guid] = asyncio.get_running_loop().time()
        await self._send_all(sends, 0.0)
        return query

    # ------------------------------------------------------------------
    # ACE turn execution
    # ------------------------------------------------------------------

    def apply_welcome(self, welcome: Welcome) -> None:
        """Install the seed's registration response."""
        self.members = sorted(welcome.members)
        self.addresses.update(welcome.addresses)
        self.assigned_neighbors = tuple(welcome.neighbors)
        self.cost_row = dict(welcome.cost_row)
        cfg = dict(welcome.config)
        self.shed_floor = int(cfg.pop("shed_floor", self.ace_config.min_degree))
        if cfg:
            known_fields = {
                f.name for f in AceConfig.__dataclass_fields__.values()
            }
            self.ace_config = AceConfig(
                **{k: v for k, v in cfg.items() if k in known_fields}
            )
        self._policy = make_policy(self.ace_config.policy)

    async def _serve_turn(
        self, conn: _Connection, turn: OptimizeTurn, env: Envelope
    ) -> None:
        try:
            done = await self.run_turn(turn)
        except Exception as exc:  # degraded, not fatal: report and go on
            done = TurnDone(
                rng_state=turn.rng_state,
                report={"error": repr(exc)},
                ok=False,
            )
        if env.rpc is not None:
            try:
                await self._send_control(
                    conn, done,
                    Envelope(src=self.peer_id, dst=env.src, reply=env.rpc),
                )
            except (ConnectionError, OSError):
                pass

    async def run_turn(self, turn: OptimizeTurn) -> TurnDone:
        """Execute one ACE phase; decisions run in a worker thread."""
        loop = asyncio.get_running_loop()
        rng = None if turn.phase == "recompute" else restore_rng(turn.rng_state)
        self._flooding, self._known, outcome = await loop.run_in_executor(
            None, self._turn, TurnView(self, loop), rng
        )
        if outcome is None:
            return TurnDone(rng_state=turn.rng_state)
        return TurnDone(
            rng_state=serialize_rng(rng), report=dataclasses.asdict(outcome)
        )

    def _turn(
        self, view: "TurnView", rng: Optional[np.random.Generator]
    ) -> Tuple[FrozenSet[int], FrozenSet[int], Optional[Turn]]:
        """Phases 1-2 over the live view, then the shared Phase 3.

        With no *rng* this is the end-of-step recompute: Phase 2 only, no
        charges.  The returned routing sets are the tree built *before*
        the turn's own mutations, like the simulator's — the seed's
        recompute pass refreshes every peer afterwards.
        """
        me, config = self.peer_id, self.ace_config
        closure = neighbor_closure(view, me, config.depth)
        _tree, flooding, known = phase2(view, me, closure)
        if rng is None:
            return flooding, known, None
        charged = phase1(view, closure, config)
        sheds, actions = phase3(
            view, me, sorted(known - flooding), config,
            self.shed_floor, self._policy, rng,
        )
        turn = Turn(charged.probe_cost, charged.exchange_cost, sheds, actions)
        return flooding, known, turn


def serialize_rng(rng: np.random.Generator) -> str:
    """JSON form of the generator's bit-generator state (the turn token)."""
    return json.dumps(rng.bit_generator.state)


def restore_rng(state: str) -> np.random.Generator:
    """Rebuild the shared protocol Generator from a turn token."""
    payload = json.loads(state)
    bitgen_cls = getattr(np.random, payload["bit_generator"])
    bitgen = bitgen_cls()
    bitgen.state = payload
    return np.random.Generator(bitgen)


class TurnView:
    """The overlay surface ACE's decision code sees during a live turn.

    Reads and writes translate to live protocol exchanges, bridged from
    the turn's worker thread into the peer's event loop:

    * ``costs_from(self, ...)``  — ``CostProbe`` RPCs (cached per turn),
    * ``neighbors(other)`` / ``costs_from(other, ...)`` — ``GetTable``
      RPCs answered with ``CostTableMessage`` (cached per turn,
      invalidated when this peer mutates an edge at the remote end),
    * ``connect`` / ``disconnect`` — ``ConnectRequest`` /
      ``DisconnectNotice`` exchanges, acknowledged before returning.

    Correctness note: during a token-serialized turn only *this* peer
    mutates topology, and every mutation involves this peer as an
    endpoint.  Every remote-rooted cost the decision code consults is a
    cost to that remote's own neighbor, which its table carries — so the
    view can answer everything the simulator's omniscient overlay could,
    with identical floats, from protocol traffic alone.
    """

    def __init__(self, peer: LivePeer, loop: asyncio.AbstractEventLoop):
        self._peer = peer
        self._loop = loop
        self._tables: Dict[int, Dict[int, float]] = {}
        self._probed: Dict[int, float] = {}

    # -- thread -> loop bridge -----------------------------------------

    def _call(self, coro: Awaitable):
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(self._peer.net.rpc_timeout * 4)

    # -- protocol reads -------------------------------------------------

    def _probe(self, target: int) -> float:
        cached = self._probed.get(target)
        if cached is None:
            reply, env = self._call(
                self._peer.rpc(target, CostProbe(
                    sender=self._peer.peer_id, target=target,
                ))
            )
            cached = env.ltime
            self._probed[target] = cached
        return cached

    def _table(self, member: int) -> Dict[int, float]:
        table = self._tables.get(member)
        if table is None:
            reply, _env = self._call(
                self._peer.rpc(member, GetTable(peer=member))
            )
            table = {p: c for p, c in reply.entries}
            self._tables[member] = table
        return table

    # -- Overlay surface ------------------------------------------------

    def has_peer(self, peer: int) -> bool:
        return peer in self._peer.members and peer not in self._peer.dead

    def neighbors(self, peer: int) -> Set[int]:
        if peer == self._peer.peer_id:
            return set(self._peer.neighbors)
        return set(self._table(peer))

    def degree(self, peer: int) -> int:
        return len(self.neighbors(peer))

    def has_edge(self, u: int, v: int) -> bool:
        if u == self._peer.peer_id:
            return v in self._peer.neighbors
        if v == self._peer.peer_id:
            return u in self._peer.neighbors
        return v in self._table(u)

    def cost(self, u: int, v: int) -> float:
        return self.costs_from(u, [v])[v]

    def costs_from(self, u, targets) -> Dict[int, float]:
        # Insertion order follows *targets*, matching Overlay.costs_from —
        # downstream float sums iterate these dicts in insertion order.
        out: Dict[int, float] = {}
        if u == self._peer.peer_id:
            for t in targets:
                out[t] = self._probe(t)
            return out
        table = self._table(u)
        for t in targets:
            out[t] = table[t]
        return out

    def warm_edge_costs(self, chunk_size: int = 256) -> int:
        return 0  # live peers have no underlay cache to pre-fill

    # -- protocol writes ------------------------------------------------

    def connect(self, u: int, v: int) -> bool:
        me = self._peer.peer_id
        if u != me and v != me:
            raise ValueError(f"peer {me} cannot connect {u}-{v} remotely")
        other = v if u == me else u
        if other in self._peer.neighbors:
            return False
        if not self._call(self._peer.bootstrap_connect(other)):
            return False
        self._tables.pop(other, None)  # its table gained this edge
        return True

    def disconnect(self, u: int, v: int) -> bool:
        me = self._peer.peer_id
        if u != me and v != me:
            raise ValueError(f"peer {me} cannot disconnect {u}-{v} remotely")
        other = v if u == me else u
        if other not in self._peer.neighbors:
            return False
        self._peer.neighbors.discard(other)
        self._tables.pop(other, None)  # its table lost this edge
        try:
            self._call(
                self._peer.rpc(
                    other, DisconnectNotice(sender=me, target=other)
                )
            )
        except PeerUnreachable:
            pass  # already gone; the link is down either way
        return True

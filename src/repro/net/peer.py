"""A live ACE peer: one asyncio endpoint speaking the wire protocol.

Each :class:`LivePeer` owns

* a listening socket and an outbound pool (one dial per remote however
  many callers race to it, retry with backoff, mark peers dead on
  failure) of ``asyncio.Protocol`` connections that dispatch each frame
  as it completes — no reader task; only an ``OptimizeTurn`` gets a task,
* a :class:`repro.sim.node.Servent` — the simulator's own GUID dedup,
  reverse-path QueryHits and flooding-set forwarding — fed *logical*
  timestamps carried in the frame envelopes, its sends written to sockets,
  and
* the ACE turn, sans-IO like the servent: on an
  :class:`~repro.net.wire.OptimizeTurn` token the peer gathers what the
  turn reads — ``CostProbe`` RPCs to its neighbors and ``GetTable`` RPCs
  to its closure, one concurrent round per closure level — then runs the
  shared procedure of :mod:`repro.core.turn` on its own event loop against
  a :class:`SnapshotView` of those answers, and finally sends the logged
  ``ConnectRequest``/``DisconnectNotice`` mutations in order.

The peer knows only what the protocol lets it know: its own neighbor set,
its cost row (what its probes measure), and whatever tables its RPCs
fetch.  There is no back door to a shared overlay object — the
convergence with the simulator is earned over the wire.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from ..core.ace import AceConfig
from ..core.policies import make_policy
from ..core.replacement import MIN_DEGREE
from ..core.turn import forwards
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
from ..topology.soa import FLOODING, NON_FLOODING, UNLABELLED
from .runtime import DeliveryCoordinator, NetConfig, PeerUnreachable, TrafficLedger
from .snapshot import NeedProbes, SnapshotView, TurnPlan, plan_turn
from .wire import (
    ConnectAck,
    Envelope,
    FrameAssembler,
    GetTable,
    Hello,
    OptimizeTurn,
    TurnDone,
    Welcome,
    WireError,
    encode_frame,
)

__all__ = ["LivePeer"]

#: Data-plane descriptor types (scheduled by the delivery coordinator and
#: charged to the traffic ledger); everything else is control plane.
_DATA_TYPES = (Query, QueryHit)


class _Connection(asyncio.Protocol):
    """One socket to a remote peer; each frame is dispatched as it completes.

    Writes go straight to the transport; :meth:`drain` waits out a full
    write buffer, which ``pause_writing`` / ``resume_writing`` bracket.
    """

    def __init__(self, peer: "LivePeer", remote: int) -> None:
        self.peer = peer
        self.remote = remote
        self.transport: Optional[asyncio.Transport] = None
        self._assembler = FrameAssembler()
        #: Pending while the transport's write buffer is over its limit.
        self._resumed: Optional[asyncio.Future] = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.peer._open.add(self)

    def data_received(self, data: bytes) -> None:
        for message, env in self._assembler.feed(data):
            self.peer._on_frame(self, message, env)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.peer._drop_conn(self)
        self.resume_writing()

    def pause_writing(self) -> None:
        self._resumed = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        resumed, self._resumed = self._resumed, None
        if resumed is not None:
            resumed.set_result(None)

    def write(self, data: bytes) -> None:
        if self.closed:
            raise ConnectionError(f"connection to {self.remote} is closed")
        self.transport.write(data)

    async def drain(self) -> None:
        """Wait while the write buffer is over its limit; raise if closed."""
        if self._resumed is not None:
            await asyncio.shield(self._resumed)
        if self.closed:
            raise ConnectionError(f"connection to {self.remote} was lost")

    @property
    def closed(self) -> bool:
        return self.transport.is_closing()

    def close(self) -> None:
        self.transport.close()


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
        #: Every open connection, dialed or accepted, registered or not.
        self._open: Set[_Connection] = set()
        self._dials: Dict[int, asyncio.Task] = {}
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
        self.shed_floor = MIN_DEGREE
        self._policy = make_policy(self.ace_config.policy)
        #: Each link's label from this side (no entry: unlabelled) and the
        #: tree-broken bit — the routing state an ``ArrayOverlay`` keeps,
        #: kept per connection.
        self._labels: Dict[int, int] = {}
        self._broken = False

        # -- servent (the simulator's, driven over sockets) -------------
        self.servent = Servent(peer_id)
        #: guid -> wall-clock time of the first QueryHit at the origin.
        self.first_hit_walltime: Dict[int, float] = {}
        self._query_start_wall: Dict[int, float] = {}

        # -- RPC plumbing -----------------------------------------------
        self._rpc_seq = 0
        self._rpc_waiters: Dict[int, asyncio.Future] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Open the listening socket (the OS picks the port)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self, -1), host=self.host, port=0
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
        for conn in list(self._open):
            conn.close()
        self._conns.clear()
        for task in [*self._anon_tasks, *self._dials.values()]:
            task.cancel()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def connect_to(self, remote: int) -> _Connection:
        """The open connection to *remote*, dialing it if there is none.

        Concurrent callers share one pending dial, so a turn's gathered
        RPCs to an undialed peer open one connection, not one each.
        """
        existing = self._conns.get(remote)
        if existing is not None and not existing.closed:
            return existing
        dial = self._dials.get(remote)
        if dial is None:
            dial = asyncio.get_running_loop().create_task(self._dial(remote))
            self._dials[remote] = dial
            dial.add_done_callback(lambda _done: self._dials.pop(remote, None))
        return await asyncio.shield(dial)

    async def _dial(self, remote: int) -> _Connection:
        """Dial *remote*, retrying per config; registers the connection."""
        if remote in self.dead:
            raise PeerUnreachable(f"peer {remote} is marked dead")
        host, port = self.addresses[remote]
        last_error: Optional[Exception] = None
        for attempt in range(self.net.max_retries + 1):
            if attempt > 0:
                counters.net_retries += 1
                await asyncio.sleep(self.net.retry_delay * attempt)
            try:
                _transport, conn = await asyncio.wait_for(
                    asyncio.get_running_loop().create_connection(
                        lambda: _Connection(self, remote), host, port
                    ),
                    self.net.connect_timeout,
                )
            except (OSError, asyncio.TimeoutError) as exc:
                last_error = exc
                continue
            self._conns[remote] = conn
            counters.net_connections += 1
            self._write_control(
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
        self._unlink(remote)

    def _unlink(self, other: int) -> None:
        """Drop the overlay link to *other*; a cut tree link breaks the tree."""
        self.neighbors.discard(other)
        if self._labels.pop(other, UNLABELLED) == FLOODING:
            self._broken = True

    def _drop_conn(self, conn: _Connection) -> None:
        conn.close()
        self._open.discard(conn)
        if conn.remote >= 0 and self._conns.get(conn.remote) is conn:
            del self._conns[conn.remote]

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _write_control(
        self, conn: _Connection, message: object, env: Envelope
    ) -> None:
        """Write one control frame; only the data plane awaits :meth:`drain`."""
        data = encode_frame(message, env)
        counters.net_messages_sent += 1
        counters.net_bytes_sent += len(data)
        conn.write(data)

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
            conn.write(data)
            await conn.drain()
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
                self._write_control(conn, message, env)
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

    def _on_frame(
        self, conn: _Connection, message: object, env: Envelope
    ) -> None:
        """Dispatch one received frame; only a turn gets a task of its own."""
        if isinstance(message, _DATA_TYPES):
            self.coord.on_frame(
                env.ltime, env.seq, self._data_handler(message, env)
            )
            return
        if env.reply is not None:
            waiter = self._rpc_waiters.get(env.reply)
            if waiter is not None and not waiter.done():
                waiter.set_result((message, env))
            return
        if isinstance(message, Hello):
            conn.remote = message.peer
            self._conns.setdefault(message.peer, conn)
            self.on_hello(conn, message, env)
            return
        if isinstance(message, OptimizeTurn):
            # The turn awaits its own reads, so it runs in a task while
            # this connection keeps answering the peers it is querying.
            task = asyncio.get_running_loop().create_task(
                self._serve_turn(conn, message, env)
            )
            self._anon_tasks.add(task)
            task.add_done_callback(self._anon_tasks.discard)
            return
        result = self.handle_request(message, env)
        if result is not None and env.rpc is not None and not conn.closed:
            reply, reply_ltime = result
            self._write_control(
                conn, reply,
                Envelope(
                    src=self.peer_id, dst=env.src,
                    ltime=reply_ltime, reply=env.rpc,
                ),
            )

    def on_hello(self, conn: _Connection, hello: Hello, env: Envelope) -> None:
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
            # Only a live member can become a neighbor: every neighbor
            # needs a cost row entry to forward queries to.
            src = env.src
            if src == self.peer_id or src in self.dead or src not in self.members:
                return (ConnectAck(accepted=False), 0.0)
            self.neighbors.add(src)
            return (ConnectAck(accepted=True), 0.0)
        if isinstance(message, DisconnectNotice):
            self._unlink(env.src)
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
        labels, broken = self._labels, self._broken
        yield from sorted(
            v for v in self.neighbors
            if forwards(broken, labels.get(v, UNLABELLED))
        )

    def _label_links(self, flooding: Collection[int]) -> None:
        """Phase 2: label every link flooding or non-flooding, mend the tree."""
        self._labels = {
            v: FLOODING if v in flooding else NON_FLOODING for v in self.neighbors
        }
        self._broken = False

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
        self.shed_floor = int(cfg.pop("shed_floor", MIN_DEGREE))
        # A key this peer does not know means the seed runs another version
        # of the protocol; dropping it would let the fleet silently diverge.
        unknown = sorted(set(cfg) - {f.name for f in dataclasses.fields(AceConfig)})
        if unknown:
            raise WireError(f"Welcome.config carries unknown keys {unknown}")
        if cfg:
            self.ace_config = AceConfig(**cfg)
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
        if env.rpc is not None and not conn.closed:
            self._write_control(
                conn, done, Envelope(src=self.peer_id, dst=env.src, reply=env.rpc)
            )

    async def run_turn(self, turn: OptimizeTurn) -> TurnDone:
        """Execute one ACE phase: gather the reads, decide, send the mutations.

        The reads go out one concurrent round per closure level: the
        neighbors' tables (and, for Phase 1, probes) first, then each next
        level's tables.  The decision runs synchronously on this loop.  When
        Phase 3 names peers not yet probed, they are probed together and the
        turn re-runs from the token, so its draws repeat exactly.
        """
        rng_state = None if turn.phase == "recompute" else turn.rng_state
        me, mine = self.peer_id, frozenset(self.neighbors)
        tables: Dict[int, Dict[int, float]] = {}
        probed: Dict[int, float] = {}
        level, seen = sorted(mine), {me, *mine}
        # Phase 1 probes every neighbor; a recompute (Phase 2 only) probes
        # nobody, as its closure reads only tables.
        asks: List[Tuple[int, object]] = []
        if rng_state is not None:
            asks = [(p, CostProbe(sender=me, target=p)) for p in level]
        for _ in range(self.ace_config.depth):
            asks += [(p, GetTable(peer=p)) for p in level]
            await self._read(asks, tables, probed)
            level = sorted({n for p in level for n in tables[p]} - seen)
            seen.update(level)
            asks = []
        plan: Optional[TurnPlan] = None
        while plan is None:
            try:
                plan = plan_turn(
                    SnapshotView(me, mine, tables, probed), self.ace_config,
                    self.shed_floor, self._policy, rng_state,
                )
            except NeedProbes as need:
                asks = [(p, CostProbe(sender=me, target=p)) for p in sorted(need.peers)]
                await self._read(asks, tables, probed)
        # Labelled before the turn's own mutations go out, as the kernel
        # labels before Phase 3: a link the turn cuts drops its label, a
        # link it makes comes up unlabelled.
        self._label_links(plan.flooding)
        await self._apply(plan.log)
        if plan.turn is None:
            return TurnDone(rng_state=turn.rng_state)
        return TurnDone(
            rng_state=plan.rng_state, report=dataclasses.asdict(plan.turn)
        )

    async def _read(
        self,
        asks: List[Tuple[int, object]],
        tables: Dict[int, Dict[int, float]],
        probed: Dict[int, float],
    ) -> None:
        """Send *asks* concurrently and file each answer in the snapshot.

        A probe's cost is its reply's logical timestamp (see
        :meth:`handle_request`); a table is the ``CostTableMessage``.
        """
        replies = await asyncio.gather(*(self.rpc(p, ask) for p, ask in asks))
        for (p, ask), (reply, env) in zip(asks, replies):
            if isinstance(ask, CostProbe):
                probed[p] = env.ltime
            else:
                tables[p] = dict(reply.entries)

    async def _apply(self, log: List[Tuple[str, int]]) -> None:
        """Send a decided turn's mutations in order, each acknowledged.

        An unreachable connect target fails the turn; a disconnect target
        that is already gone does not — the link is down either way.
        """
        for kind, other in log:
            if kind == "connect":
                await self.bootstrap_connect(other)
                continue
            self._unlink(other)
            try:
                await self.rpc(
                    other, DisconnectNotice(sender=self.peer_id, target=other)
                )
            except PeerUnreachable:
                pass

"""Seeded program generators for the spine benchmark.

This is the only module the ``--seed`` argument reaches.  Everything it
returns is plain data (tuples of object names and integers); the drivers
hand those programs to the engine, which never sees the seed.

Streams are keyed by ``(seed, stream name, cell index)``, and programs are
drawn one after another from one ``random.Random``, so a shorter stream is
a prefix of a longer one: ``certified_nested`` replays exactly the
programs ``nested_uniform`` runs, only fewer of them.
"""

from __future__ import annotations

import bisect
import random
from typing import Callable, Dict, List, Tuple

#: Every object starts with this balance, so conservation is a fixed sum.
INITIAL_BALANCE = 1000

#: One subtransaction of a nested program:
#: ``(read_obj, src, dst, amount, fail_first)`` — read one object, move
#: ``amount`` from ``src`` to ``dst``; when ``fail_first`` is set the first
#: attempt is aborted after its first write and retried inside the parent.
Sub = Tuple[str, str, str, int, bool]
NestedProgram = Tuple[Sub, ...]

#: A served session: ``("w", a, b, c, d)`` increments ``a`` by ``+d`` and
#: ``b`` by ``-d`` and reads ``c``; ``("r", o1, o2, o3, o4)`` is a
#: read-only snapshot session of four reads.
Session = Tuple

#: A flat transfer: move ``amount`` from ``a`` to ``b``.
Transfer = Tuple[str, str, int]

SUBS_PER_PROGRAM = 4
#: Data operations the driver performs for one committed nested program
#: (per subtransaction: one read, two read_for_update + write pairs).
OPS_PER_NESTED_PROGRAM = SUBS_PER_PROGRAM * 5


def stream_rng(seed: int, stream: str, cell: int) -> random.Random:
    """The generator for one cell of one stream (string seeds hash the
    same on every interpreter, unlike ``hash()``)."""
    return random.Random("spine:%d:%s:%d" % (seed, stream, cell))


def object_names(count: int) -> List[str]:
    return ["o%05d" % index for index in range(count)]


def initial_store(count: int) -> Dict[str, int]:
    return dict.fromkeys(object_names(count), INITIAL_BALANCE)


def uniform_picker(rng: random.Random, names: List[str]) -> Callable[[], str]:
    choice = rng.choice
    return lambda: choice(names)


def zipf_picker(
    rng: random.Random, names: List[str], theta: float
) -> Callable[[], str]:
    """Rank ``k`` (1-based) is drawn with weight ``k ** -theta``."""
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, len(names) + 1):
        total += rank ** -theta
        cumulative.append(total)
    uniform = rng.random
    last = len(names) - 1

    def pick() -> str:
        return names[min(bisect.bisect_left(cumulative, uniform() * total), last)]

    return pick


def _distinct(pick: Callable[[], str], count: int) -> List[str]:
    chosen: List[str] = []
    while len(chosen) < count:
        name = pick()
        if name not in chosen:
            chosen.append(name)
    return chosen


def nested_programs(
    rng: random.Random,
    count: int,
    pick: Callable[[], str],
    failure_share: float = 0.0,
) -> List[NestedProgram]:
    """Bushy programs of four sequential subtransactions.  The failure
    draw is only made when ``failure_share`` is non-zero, so the
    failure-free stream does not depend on it."""
    programs: List[NestedProgram] = []
    for _ in range(count):
        subs = []
        for _ in range(SUBS_PER_PROGRAM):
            read_obj, src, dst = _distinct(pick, 3)
            amount = rng.randint(1, 9)
            fail_first = bool(failure_share) and rng.random() < failure_share
            subs.append((read_obj, src, dst, amount, fail_first))
        programs.append(tuple(subs))
    return programs


def served_sessions(
    rng: random.Random,
    count: int,
    pick: Callable[[], str],
    read_only_share: float,
) -> List[Session]:
    sessions: List[Session] = []
    for _ in range(count):
        if rng.random() < read_only_share:
            sessions.append(("r",) + tuple(_distinct(pick, 4)))
        else:
            a, b, c = _distinct(pick, 3)
            sessions.append(("w", a, b, c, rng.randint(1, 9)))
    return sessions


def transfers(
    rng: random.Random, count: int, pick: Callable[[], str]
) -> List[Transfer]:
    out: List[Transfer] = []
    for _ in range(count):
        a, b = _distinct(pick, 2)
        out.append((a, b, rng.randint(1, 9)))
    return out


def cross_site_transfers(
    rng: random.Random,
    count: int,
    names: List[str],
    home: Callable[[str], int],
) -> List[Transfer]:
    """Transfers whose two accounts live on different sites under
    ``home`` (the cluster's routing function), for the 2PC ledger rung."""
    by_site: Dict[int, List[str]] = {}
    for name in names:
        by_site.setdefault(home(name), []).append(name)
    sites = sorted(by_site)
    if len(sites) < 2:
        raise ValueError("cross-site transfers need objects on two sites")
    out: List[Transfer] = []
    for _ in range(count):
        first, second = rng.sample(sites, 2)
        out.append(
            (rng.choice(by_site[first]), rng.choice(by_site[second]),
             rng.randint(1, 9))
        )
    return out

"""Finite modal Kripke resource models.

A :class:`Model` is a finite commutative monoid of worlds ``(worlds,
unit, op)`` with a preorder (stored as generator pairs ``(m, n)``
meaning ``m >= n``; the reflexive-transitive closure is computed), a
hereditary valuation, and neighbourhood tables mapping ``"box"`` or an
agent id to world-indexed families of world sets.  Serial systems add a
second, possibly non-commutative monoid operation ``serial_op``.

Truth at a world:

* ``p``       : world in valuation(p)
* ``1``       : world >= unit
* ``A * B``   : world >= w1 op w2 for some w1 in ||A||, w2 in ||B||
* ``A & B``   : both hold
* ``A -o B``  : for every n in ||A||, n op world in ||B||
* ``A @ B``   : as * with serial_op
* ``A \\ B``  : for every n in ||A||, n serial_op world in ||B||
* ``B / A``   : for every n in ||A||, world serial_op n in ||B||
* ``[] A``    : ||A|| is a member of the box neighbourhood of world
* ``E[a] A``  : ||A|| is a member of agent a's neighbourhood of world

A sequent is valid in a model when the implication from its folded
antecedent to its succedent holds at the unit.

:func:`validate_model` checks the monoid laws, bifunctoriality,
heredity of valuation and neighbourhoods, and the per-system
neighbourhood conditions named after the sequent rules they support
(``NotNec``, ``BringsRefl``, ``BringsTensor``, ``BringsWith``,
``BringsOdot``).  :func:`random_model` is a seeded generator whose
output always validates; :func:`find_countermodel` searches generated
models for one falsifying a sequent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .context import Sequent, to_formula
from .syntax import (
    BOX_SYSTEMS,
    SERIAL_SYSTEMS,
    Atom,
    Box,
    Brings,
    Formula,
    Limp,
    Lres,
    Odot,
    Rres,
    System,
    SystemId,
    Tensor,
    Unit,
    With,
    limp,
    operands,
    subformulas,
)

WorldPair = tuple[str, str]
OpTable = dict[WorldPair, str]
NbhdTable = dict[str, dict[str, tuple[tuple[str, ...], ...]]]


@dataclass(frozen=True)
class Model:
    """Plain data; list orderings are preserved for exact JSON round trips."""

    worlds: tuple[str, ...]
    unit: str
    op: OpTable
    serial_op: OpTable | None
    order: tuple[WorldPair, ...]
    valuation: dict[str, tuple[str, ...]]
    neighbourhoods: NbhdTable


@dataclass(frozen=True)
class ModelReport:
    ok: bool
    failures: tuple[str, ...]


FRAME_CONDITIONS: dict[SystemId, tuple[str, ...]] = {
    SystemId.MILL: (),
    SystemId.PCMILL: (),
    SystemId.RSBIAT: ("NotNec", "BringsRefl", "BringsTensor", "BringsWith"),
    SystemId.SRSBIAT: (
        "NotNec", "BringsRefl", "BringsTensor", "BringsWith", "BringsOdot",
    ),
}


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _up(above: list[int], mask: int) -> int:
    """Upward closure of a world set; ``above[j]`` masks the worlds >= j."""
    out = 0
    for j in _bits(mask):
        out |= above[j]
    return out


class _Frame:
    """The world-set kernel of one model's monoid and order; world sets
    are int bitmasks.  :meth:`clause` memoises the extension of each
    binary connective by ``(connective, left mask, right mask)`` for the
    frame's life, so a product or residual is computed once per operand
    pair, whoever asks: an :class:`Evaluator` on the frame, or a frame
    condition in ``_nbhd_violations``.  Residuals share that memo;
    upward closure is not memoised but read off ``above``, the per-world
    masks of the order.  A frame holds no valuation or neighbourhoods,
    so models that differ only there share one."""

    def __init__(self, names: tuple[str, ...], e: int, op: list[list[int]],
                 ser: list[list[int]] | None, above: list[int]):
        self.names = list(names)
        self.idx = {w: i for i, w in enumerate(self.names)}
        self.n = len(self.names)
        self.e, self.op, self.ser, self.above = e, op, ser, above
        self._clauses: dict[tuple[type, int, int], int] = {}

    @classmethod
    def of(cls, m: Model) -> _Frame:
        idx = {w: i for i, w in enumerate(m.worlds)}

        def table(op: OpTable) -> list[list[int]]:
            return [[idx[op[(w, v)]] for v in m.worlds] for w in m.worlds]

        ser = table(m.serial_op) if m.serial_op is not None else None
        pairs = [(idx[a], idx[b]) for a, b in m.order]
        return cls(m.worlds, idx[m.unit], table(m.op), ser,
                   _closure(len(m.worlds), pairs))

    def set_name(self, mask: int) -> str:
        return "{" + ",".join(self.names[i] for i in _bits(mask)) + "}"

    def clause(self, kind: type, x: int, y: int) -> int:
        """The extension of ``kind`` (``Tensor``, ``Limp``, or, with a
        serial table, ``Odot``, ``Lres``, ``Rres``) applied to operands
        whose extensions are ``x`` (left) and ``y`` (right)."""
        key = (kind, x, y)
        got = self._clauses.get(key)
        if got is None:
            t = self.op if kind is Tensor or kind is Limp else self.ser
            if kind is Tensor or kind is Odot:
                prods = 0
                for i in _bits(x):
                    row = t[i]
                    for j in _bits(y):
                        prods |= 1 << row[j]
                got = _up(self.above, prods)
            elif kind is Rres:
                # B / A: the left operand is the result, the right the
                # argument, which acts from the right
                got = self._arrow(y, x, lambda m, i: t[m][i])
            else:
                got = self._arrow(x, y, lambda m, i: t[i][m])
            self._clauses[key] = got
        return got

    def _arrow(self, arg: int, res: int, at) -> int:
        """The worlds ``m`` with ``at(m, i)`` in ``res`` for every ``i``
        in ``arg``."""
        return sum(1 << m for m in range(self.n)
                   if all(res >> at(m, i) & 1 for i in _bits(arg)))


def _closure(n: int, pairs: list[tuple[int, int]]) -> list[int]:
    """above[j] = bitmask of worlds >= j, reflexive-transitive closure."""
    above = [1 << j for j in range(n)]
    for a, b in pairs:
        above[b] |= 1 << a
    changed = True
    while changed:
        changed = False
        for j in range(n):
            acc = above[j]
            for i in _bits(acc):
                acc |= above[i]
            if acc != above[j]:
                above[j] = acc
                changed = True
    return above


def _order_violations(n: int, above: list[int], op, ser):
    """Yield ``(law, greater, lesser, witness)`` for every pair the order
    must relate (``greater >= lesser``) but does not: bifunctoriality of
    each table (law ``"op"``/``"serial_op"``, witness ``(hi1, low1, hi2,
    low2)``), then entropy ``op >= serial_op`` (law ``"entropy"``,
    witness ``(i, j)``)."""
    for law, t in (("op", op), ("serial_op", ser)):
        if t is None:
            continue
        for low1 in range(n):
            for hi1 in _bits(above[low1]):
                for low2 in range(n):
                    for hi2 in _bits(above[low2]):
                        a, b = t[hi1][hi2], t[low1][low2]
                        if not above[b] >> a & 1:
                            yield law, a, b, (hi1, low1, hi2, low2)
    if ser is not None:
        for i in range(n):
            for j in range(n):
                a, b = op[i][j], ser[i][j]
                if not above[b] >> a & 1:
                    yield "entropy", a, b, (i, j)


def _mask_of(frame: _Frame, worlds) -> int:
    out = 0
    for w in worlds:
        out |= 1 << frame.idx[w]
    return out


def _nbhd_masks(frame: _Frame, m: Model) -> dict[str, list[set[int]]]:
    out: dict[str, list[set[int]]] = {}
    for key, per_world in m.neighbourhoods.items():
        table: list[set[int]] = [set() for _ in range(frame.n)]
        for w, sets in per_world.items():
            table[frame.idx[w]] = {_mask_of(frame, s) for s in sets}
        out[key] = table
    return out


def _nbhd_violations(fr: _Frame, nbhd: dict[str, list[set[int]]],
                     agents, conditions: tuple[str, ...], bot: int):
    """Yield ``(condition, key, world, mask, home)`` for every failure of
    heredity in each table, then of each of ``conditions`` in the tables
    of ``agents``.  ``home`` is the world whose family lacks the set
    ``mask`` (a hereditary set found at ``world``, an intersection, a
    product); it is ``None`` when ``mask`` offends where it is, at
    ``world`` (``NotNec``, ``BringsRefl``)."""
    n, above = fr.n, fr.above
    for key, table in nbhd.items():
        for w in range(n):
            for x in table[w]:
                for hi in _bits(above[w]):
                    if hi != w and x not in table[hi]:
                        yield "heredity", key, w, x, hi
    products = [(cond, kind, t) for cond, kind, t in (
        ("BringsTensor", Tensor, fr.op), ("BringsOdot", Odot, fr.ser))
        if cond in conditions and t is not None]
    for key in agents:
        table = nbhd[key]
        for w in range(n):
            for x in table[w]:
                if "NotNec" in conditions and x >> fr.e & 1 \
                        and not bot >> w & 1:
                    yield "NotNec", key, w, x, None
                if "BringsRefl" in conditions and not x >> w & 1:
                    yield "BringsRefl", key, w, x, None
                if "BringsWith" in conditions:
                    for y in table[w]:
                        if x & y not in table[w]:
                            yield "BringsWith", key, w, x & y, w
        for cond, kind, t in products:
            for w1 in range(n):
                for x in table[w1]:
                    for w2 in range(n):
                        for y in table[w2]:
                            z, home = fr.clause(kind, x, y), t[w1][w2]
                            if z not in table[home]:
                                yield cond, key, w1, z, home


# ---------------------------------------------------------------------------
# evaluation


class Evaluator:
    """Reusable evaluator; caches extensions per formula.  Building one
    raises ValueError, worded as by ``validate_model``, on a model whose
    tables name worlds it lacks or miss a pair of worlds."""

    def __init__(self, model: Model):
        bad = _structure_failures(model)
        if bad:
            raise ValueError("; ".join(bad))
        self._bind(model, _Frame.of(model))

    @classmethod
    def _over(cls, fr: _Frame, model: Model) -> Evaluator:
        """An evaluator of ``model`` on ``fr``, a frame built for a model
        that differs from it at most in valuation and neighbourhoods."""
        ev = cls.__new__(cls)
        ev._bind(model, fr)
        return ev

    def _bind(self, model: Model, fr: _Frame) -> None:
        self.model, self._fr = model, fr
        self._val = {p: _mask_of(fr, ws) for p, ws in model.valuation.items()}
        # per table, each member set -> the worlds whose family holds it
        self._holders: dict[str, dict[int, int]] = {}
        for key, table in _nbhd_masks(fr, model).items():
            holders = self._holders[key] = {}
            for w, sets in enumerate(table):
                for x in sets:
                    holders[x] = holders.get(x, 0) | 1 << w
        self._memo: dict[Formula, int] = {}

    # -- public surface

    def eval(self, world: str, f: Formula) -> bool:
        return bool(self.extension_mask(f) >> self._fr.idx[world] & 1)

    def extension(self, f: Formula) -> frozenset[str]:
        mask = self.extension_mask(f)
        return frozenset(self._fr.names[i] for i in _bits(mask))

    def upward(self, worlds) -> frozenset[str]:
        mask = _up(self._fr.above, _mask_of(self._fr, worlds))
        return frozenset(self._fr.names[i] for i in _bits(mask))

    def sequent_valid(self, s: Sequent) -> bool:
        goal = limp(to_formula(s.ctx), s.succ)
        return self.eval(self.model.unit, goal)

    def extension_upward_closed(self, f: Formula) -> bool:
        mask = self.extension_mask(f)
        return _up(self._fr.above, mask) == mask

    def falsifying_world(self, s: Sequent) -> str | None:
        """A world satisfying the folded antecedent but not the succedent."""
        bad = self.extension_mask(to_formula(s.ctx)) \
            & ~self.extension_mask(s.succ)
        for i in _bits(bad):
            return self._fr.names[i]
        return None

    # -- clauses

    def extension_mask(self, f: Formula) -> int:
        memo = self._memo
        got = memo.get(f)
        if got is not None:
            return got
        # post-order without recursion: a formula whose operands lack an
        # extension puts them on the stack above itself
        todo = [f]
        while todo:
            g = todo[-1]
            try:
                got = memo[g] = self._compute(g)
            except KeyError:
                kids = [k for k in operands(g) if k not in memo]
                if not kids:
                    raise
                todo += kids
                continue
            todo.pop()
        return got

    def _compute(self, f: Formula) -> int:
        """The extension of ``f``; raises ``KeyError`` while an operand
        has none in the memo.  Binary connectives and modalities are
        looked up by their operands' masks: in the frame's clause memo,
        and in the neighbourhood table's holders."""
        fr = self._fr
        memo = self._memo
        kind = type(f)
        if kind is Atom:
            return self._val.get(f.name, 0)
        if kind is Unit:
            return fr.above[fr.e]
        if kind is Box or kind is Brings:
            holders = self._holders.get("box" if kind is Box else f.agent)
            if holders is None and kind is Brings:
                raise ValueError(f"model has no neighbourhood table "
                                 f"for agent {f.agent!r}")
            body = memo[f.body]
            # without a box table, []A holds nowhere
            return holders.get(body, 0) if holders else 0
        if kind is With:
            return memo[f.left] & memo[f.right]
        if fr.ser is None and kind is not Tensor and kind is not Limp:
            raise ValueError(
                f"model has no serial operation, needed for {f.key}"
            )
        return fr.clause(kind, memo[f.left], memo[f.right])


def eval_formula(m: Model, world: str, f: Formula) -> bool:
    return Evaluator(m).eval(world, f)


def extension(m: Model, f: Formula) -> frozenset[str]:
    return Evaluator(m).extension(f)


def sequent_valid(m: Model, s: Sequent) -> bool:
    return Evaluator(m).sequent_valid(s)


# ---------------------------------------------------------------------------
# validation


def _structure_failures(m: Model, system: System | None = None) -> list[str]:
    """What makes ``m`` no model at all; without ``system``, only what
    holds whatever the system (names, tables, valuation)."""
    bad: list[str] = []
    if not m.worlds:
        return ["no worlds"]
    seen = set()
    for w in m.worlds:
        if not w or "," in w:
            bad.append(f"bad world name {w!r}")
        if w in seen:
            bad.append(f"duplicate world {w!r}")
        seen.add(w)
    if m.unit not in seen:
        bad.append(f"unit {m.unit!r} is not a world")

    def check_table(op: OpTable, label: str) -> None:
        for (a, b), c in op.items():
            if a not in seen or b not in seen or c not in seen:
                bad.append(f"{label} entry {a},{b} -> {c} leaves the worlds")
        for a in m.worlds:
            for b in m.worlds:
                if (a, b) not in op:
                    bad.append(f"{label} missing entry {a},{b}")

    check_table(m.op, "op")
    if m.serial_op is not None:
        check_table(m.serial_op, "serial_op")
    elif system is not None and system.ident in SERIAL_SYSTEMS:
        bad.append(f"serial_op required for {system.ident.value}")
    for a, b in m.order:
        if a not in seen or b not in seen:
            bad.append(f"order pair {a} >= {b} names unknown worlds")
    for p, ws in m.valuation.items():
        for w in ws:
            if w not in seen:
                bad.append(f"valuation of {p!r} names unknown world {w!r}")
    agents = system.agents if system is not None else ()
    for key, per_world in m.neighbourhoods.items():
        # a key naming an agent is that agent's table, even ``box``
        if system is not None and key not in agents:
            if key != "box":
                bad.append(f"neighbourhood key {key!r} is not an agent of "
                           f"{system}")
            elif system.ident not in BOX_SYSTEMS:
                bad.append(f"box neighbourhood not meaningful in "
                           f"{system.ident.value}")
        for w, sets in per_world.items():
            if w not in seen:
                bad.append(f"neighbourhood of {key!r} names unknown world "
                           f"{w!r}")
                continue
            for x in sets:
                for v in x:
                    if v not in seen:
                        bad.append(f"neighbourhood set of {key!r} at {w} "
                                   f"names unknown world {v!r}")
    for agent in agents:
        if agent not in m.neighbourhoods:
            bad.append(f"missing neighbourhood table for agent {agent!r}")
    return bad


# validate_model's message for each failure _nbhd_violations yields
_COMBINED = ("agent {key!r}: combined neighbourhood {set} missing at {home} "
             "({closure} closure)")
_NBHD_FAILURES = {
    "heredity": "neighbourhood of {key!r} not hereditary: {set} at {world} "
                "missing at {home}",
    "NotNec": "agent {key!r} at {world}: neighbourhood {set} contains the "
              "unit but the world does not satisfy bot",
    "BringsRefl": "agent {key!r} at {world}: neighbourhood {set} does not "
                  "contain its world",
    "BringsWith": "agent {key!r} at {world}: intersection {set} missing",
    "BringsTensor": _COMBINED, "BringsOdot": _COMBINED,
}


def validate_model(m: Model, system: System) -> ModelReport:
    """Check all laws and the frame conditions selected by the system."""
    bad = _structure_failures(m, system)
    if bad:
        return ModelReport(False, tuple(bad))

    fr = _Frame.of(m)
    n, e = fr.n, fr.e
    names = fr.names

    def law_table(t: list[list[int]], label: str, commutative: bool) -> None:
        for i in range(n):
            if t[e][i] != i or t[i][e] != i:
                bad.append(f"{label}: {m.unit} is not neutral at {names[i]}")
            for j in range(n):
                if commutative and t[i][j] != t[j][i]:
                    bad.append(f"{label} not commutative at "
                               f"{names[i]},{names[j]}")
                for k in range(n):
                    if t[t[i][j]][k] != t[i][t[j][k]]:
                        bad.append(f"{label} not associative at "
                                   f"{names[i]},{names[j]},{names[k]}")

    law_table(fr.op, "op", commutative=True)
    if fr.ser is not None:
        law_table(fr.ser, "serial_op", commutative=False)
    for law, a, b, w in _order_violations(n, fr.above, fr.op, fr.ser):
        if law == "entropy":
            i, j = w
            bad.append(f"entropy fails: {names[i]} op {names[j]} !>= "
                       f"{names[i]} serial_op {names[j]}")
        else:
            hi1, low1, hi2, low2 = w
            bad.append(f"{law} not bifunctorial: "
                       f"{names[hi1]} >= {names[low1]}, "
                       f"{names[hi2]} >= {names[low2]}, but "
                       f"{names[a]} !>= {names[b]}")

    for p, ws in m.valuation.items():
        mask = _mask_of(fr, ws)
        if _up(fr.above, mask) != mask:
            bad.append(f"valuation of {p!r} is not upward closed")

    bot = _mask_of(fr, m.valuation.get("bot", ()))
    for cond, key, w, x, home in _nbhd_violations(
            fr, _nbhd_masks(fr, m), system.agents,
            FRAME_CONDITIONS[system.ident], bot):
        bad.append(_NBHD_FAILURES[cond].format(
            key=key, world=names[w], set=fr.set_name(x), closure=cond.lower(),
            home=None if home is None else names[home]))
    return ModelReport(not bad, tuple(dict.fromkeys(bad)))


# ---------------------------------------------------------------------------
# serialization


def model_to_json(m: Model) -> dict:
    obj: dict = {
        "worlds": list(m.worlds),
        "unit": m.unit,
        "op": {f"{a},{b}": c for (a, b), c in m.op.items()},
    }
    if m.serial_op is not None:
        obj["serial_op"] = {f"{a},{b}": c
                            for (a, b), c in m.serial_op.items()}
    obj["order"] = [[a, b] for a, b in m.order]
    obj["valuation"] = {p: list(ws) for p, ws in m.valuation.items()}
    obj["neighbourhoods"] = {
        key: {w: [list(x) for x in sets] for w, sets in per_world.items()}
        for key, per_world in m.neighbourhoods.items()
    }
    return obj


def _parse_op(obj: dict, label: str) -> OpTable:
    out: OpTable = {}
    for key, val in obj.items():
        a, sep, b = key.partition(",")
        if not sep or not a or not b or "," in b:
            raise ValueError(f"bad {label} key {key!r}, want 'w,v'")
        out[(a, b)] = _names(val, 0)
    return out


def _names(value, depth: int):
    """``value`` as world names nested in ``depth`` levels of lists, each
    list made a tuple; TypeError when it has another shape."""
    if depth == 0:
        if not isinstance(value, str):
            raise TypeError(f"world name {value!r} is not a string")
        return value
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list")
    return tuple(_names(v, depth - 1) for v in value)


def model_from_json(obj: dict) -> Model:
    try:
        worlds = _names(obj["worlds"], 1)
        unit = _names(obj["unit"], 0)
        op = _parse_op(obj["op"], "op")
        serial = _parse_op(obj["serial_op"], "serial_op") \
            if "serial_op" in obj else None
        order = tuple((a, b) for a, b in _names(obj.get("order", []), 2))
        valuation = {p: _names(ws, 1)
                     for p, ws in obj.get("valuation", {}).items()}
        neighbourhoods = {
            key: {w: _names(sets, 2) for w, sets in per_world.items()}
            for key, per_world in obj.get("neighbourhoods", {}).items()
        }
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed model object: {exc}") from None
    return Model(worlds, unit, op, serial, order, valuation, neighbourhoods)


# ---------------------------------------------------------------------------
# random generation

_FAMILY_ATOMS = ("p", "q", "r", "s")


def _family_tables(family: str, n: int):
    """(op, serial_op or None, base order pairs as (greater, lesser))."""
    sink = n - 1

    if family == "addcap":
        op = [[min(i + j, sink) for j in range(n)] for i in range(n)]
    elif family == "maxchain":
        op = [[max(i, j) for j in range(n)] for i in range(n)]
    elif family == "collapse":
        op = [[j if i == 0 else (i if j == 0 else sink) for j in range(n)]
              for i in range(n)]
    elif family == "cyclic":
        op = [[(i + j) % n for j in range(n)] for i in range(n)]
    elif family == "leftproj":
        # serial op projects to its left argument away from the unit;
        # parallel products all land on a top world sitting above the
        # middle worlds, which keeps entropy and bifunctoriality
        assert n >= 3
        op = [[sink] * n for _ in range(n)]
        ser = [[i if i else j for j in range(n)] for i in range(n)]
        for i in range(n):
            op[0][i] = op[i][0] = i
        return op, ser, [(sink, i) for i in range(1, sink)]
    elif family == "diamond":
        # worlds 0..5 play unit, two generators, their two serial
        # products, and the parallel product sitting above both
        assert n == 6
        op = [[sink] * n for _ in range(n)]
        ser = [[sink] * n for _ in range(n)]
        for i in range(n):
            op[0][i] = op[i][0] = i
            ser[0][i] = ser[i][0] = i
        ser[1][2] = 3  # a . b
        ser[2][1] = 4  # b . a
        return op, ser, [(5, 3), (5, 4)]
    else:
        raise AssertionError(family)

    if family == "cyclic":
        pairs: list[tuple[int, int]] = []
    else:
        pairs = [(i + 1, i) for i in range(n - 1)]
    return op, None, pairs


def _repair_order(n: int, op, ser, pairs: set[tuple[int, int]]):
    """Grow the order until bifunctoriality and entropy hold; returns
    the closure masks."""
    while True:
        above = _closure(n, list(pairs))
        added = False
        for _, greater, lesser, _ in _order_violations(n, above, op, ser):
            pairs.add((greater, lesser))
            added = True
        if not added:
            return above


def _close_neighbourhoods(
    fr: _Frame, nbhd: dict[str, list[set[int]]],
    conditions: tuple[str, ...], bot: int,
) -> int:
    """Repair, one round at a time, what ``_nbhd_violations`` finds in
    every table until nothing is left: add each missing set, and grow
    ``bot`` by the worlds above one that ``NotNec`` finds; returns the
    grown ``bot``.  Every condition is monotone, so this is the least
    fixpoint whatever the order of repairs.  ``BringsRefl`` is never
    repaired: every seeded set contains its world, and heredity,
    intersections and products keep that true."""
    conditions = tuple(c for c in conditions if c != "BringsRefl")
    while True:
        found = list(_nbhd_violations(fr, nbhd, tuple(nbhd), conditions, bot))
        if not found:
            return bot
        for _, key, w, x, home in found:
            if home is None:
                bot |= fr.above[w]
            else:
                nbhd[key][home].add(x)


def _random_upset(rng: random.Random, n: int, above, within: int = -1) -> int:
    base = 0
    for i in range(n):
        if within >> i & 1 and rng.random() < 0.35:
            base |= 1 << i
    if not base:
        base = 1 << rng.randrange(n)
    return _up(above, base)


def _set_names(names: tuple[str, ...], mask: int) -> tuple[str, ...]:
    return tuple(names[i] for i in _bits(mask))


def _named_tables(
    names: tuple[str, ...], valuation: dict[str, tuple[str, ...]],
    bot_mask: int, nbhd: dict[str, list[set[int]]],
) -> tuple[dict[str, tuple[str, ...]], NbhdTable]:
    """``valuation`` with ``bot`` made ``bot_mask`` (when not empty), and
    the neighbourhood tables, with the world names for the bit masks."""
    valuation = dict(valuation)
    if bot_mask:
        valuation["bot"] = _set_names(names, bot_mask)
    tables = {
        key: {names[w]: tuple(_set_names(names, x) for x in sorted(sets))
              for w, sets in enumerate(table)}
        for key, table in nbhd.items()
    }
    return valuation, tables


def random_model(seed: int, size: int, system: System) -> Model:
    """Deterministic-in-seed model that always passes validate_model."""
    if size < 1:
        raise ValueError("size must be at least 1")
    tag = system.ident.value + ":" + ",".join(system.agents)
    rng = random.Random(f"{seed}|{size}|{tag}")

    serial = system.ident in SERIAL_SYSTEMS
    families = ["addcap", "maxchain", "collapse", "cyclic"]
    if serial and size >= 3:
        families += ["leftproj", "leftproj"]
    if serial and size >= 6:
        families.append("diamond")
    family = rng.choice(families)

    n = 6 if family == "diamond" else size
    op, ser, base_pairs = _family_tables(family, n)
    if ser is None and serial:
        ser = [row[:] for row in op]

    pairs = set(base_pairs)
    if family in ("addcap", "maxchain", "collapse", "cyclic") \
            and n > 1 and rng.random() < 0.25:
        pairs.add((rng.randrange(n), rng.randrange(n)))
    above = _repair_order(n, op, ser, pairs)

    # valuation: random upward closed sets; diamond biases the two
    # generator worlds so serial order becomes observable
    val_masks: dict[str, int] = {}
    for k, p in enumerate(_FAMILY_ATOMS):
        if rng.random() < 0.8:
            if family in ("diamond", "leftproj") and rng.random() < 0.7:
                val_masks[p] = _up(above, 1 << (1 + k % 2))
            else:
                val_masks[p] = _random_upset(rng, n, above)
    bot_mask = 0
    if rng.random() < 0.15:
        bot_mask = _random_upset(rng, n, above)

    conditions = FRAME_CONDITIONS[system.ident]
    nbhd: dict[str, list[set[int]]] = {}
    if system.ident in BOX_SYSTEMS:
        table: list[set[int]] = [set() for _ in range(n)]
        for w in range(n):
            if rng.random() < 0.5:
                for _ in range(rng.randrange(1, 3)):
                    raw = _random_upset(rng, n, above) \
                        if rng.random() < 0.6 else \
                        rng.randrange(1, 1 << n)
                    table[w].add(raw)
        nbhd["box"] = table
    for agent in system.agents:
        table = [set() for _ in range(n)]
        for w in range(n):
            if rng.random() < 0.45:
                extra = 1 << rng.randrange(n) if rng.random() < 0.5 else 0
                x = _up(above, (1 << w) | extra)
                table[w].add(x)
        nbhd[agent] = table
    names = tuple(f"w{i}" for i in range(n))
    bot_mask = _close_neighbourhoods(
        _Frame(names, 0, op, ser, above), nbhd, conditions, bot_mask
    )

    def named(t: list[list[int]]) -> OpTable:
        return {(names[i], names[j]): names[t[i][j]]
                for i in range(n) for j in range(n)}

    valuation, nbhd_out = _named_tables(
        names,
        {p: _set_names(names, mask) for p, mask in sorted(val_masks.items())},
        bot_mask, nbhd,
    )
    return Model(
        worlds=names, unit=names[0], op=named(op),
        serial_op=None if ser is None else named(ser),
        order=tuple((names[a], names[b]) for a, b in sorted(pairs)),
        valuation=valuation, neighbourhoods=nbhd_out,
    )


# ---------------------------------------------------------------------------
# countermodel search


@dataclass(frozen=True)
class Countermodel:
    """A validated model plus a world where the antecedent holds and the
    succedent fails."""

    model: Model
    world: str


def _atom_variant(m: Model, fr: _Frame, atoms: list[str],
                  rng: random.Random) -> Model:
    valuation = dict(m.valuation)
    for p in atoms:
        if p == "bot":
            continue
        if rng.random() < 0.3:
            valuation.pop(p, None)
            continue
        mask = _random_upset(rng, fr.n, fr.above)
        valuation[p] = _set_names(fr.names, mask)
    return replace(m, valuation=valuation)


def _hint_variant(
    m: Model, fr: _Frame, s: Sequent, rng: random.Random
) -> Model | None:
    """Plant extensions of modal subformula bodies as neighbourhood sets,
    then re-close the frame conditions; ``fr`` is ``m``'s frame."""
    bodies: list[tuple[str, Formula]] = []
    # in key order, so the rng's draws do not follow the hash seed
    for f in sorted(subformulas(to_formula(s.ctx)) | subformulas(s.succ),
                    key=lambda f: f.key):
        if isinstance(f, Box):
            bodies.append(("box", f.body))
        elif isinstance(f, Brings):
            bodies.append((f.agent, f.body))
    if not bodies:
        return None
    ev = Evaluator._over(fr, m)
    nbhd = _nbhd_masks(fr, m)
    conditions = FRAME_CONDITIONS[s.system.ident]
    agent_conditions = bool(conditions)
    added = False
    for key, body in bodies:
        table = nbhd.setdefault(key, [set() for _ in range(fr.n)])
        ext = ev.extension_mask(body)
        for w in _bits(ext if agent_conditions else (1 << fr.n) - 1):
            if rng.random() < 0.5:
                continue
            if agent_conditions and ext >> fr.e & 1:
                continue  # would force bot; not useful as a hint
            if ext not in table[w]:
                table[w].add(ext)
                added = True
    if not added:
        return None
    bot_mask = _close_neighbourhoods(
        fr, nbhd, conditions, _mask_of(fr, m.valuation.get("bot", ()))
    )
    valuation, nbhd_out = _named_tables(fr.names, m.valuation, bot_mask, nbhd)
    return replace(m, valuation=valuation, neighbourhoods=nbhd_out)


def find_countermodel(
    s: Sequent, max_size: int, seed: int = 0, attempts: int = 25
) -> Countermodel | None:
    """Search seeded random models (plus sequent-guided variants) for one
    falsifying the sequent.  ``None`` is not a provability claim.
    ``max_size`` below 1 searches nothing and raises ValueError."""
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    atoms = sorted(
        {f.name for g in (to_formula(s.ctx), s.succ)
         for f in subformulas(g) if isinstance(f, Atom)}
    )
    rng = random.Random(f"countermodel|{seed}|{s.key}")
    for size in range(1, max_size + 1):
        for t in range(attempts):
            base = random_model(rng.randrange(1 << 30), size, s.system)
            # the variants differ from base only in valuation and
            # neighbourhoods, so they share its frame
            fr = _Frame.of(base)
            variants = [base]
            variants.append(_atom_variant(base, fr, atoms, rng))
            hinted = _hint_variant(variants[-1], fr, s, rng)
            if hinted is not None:
                variants.append(hinted)
            hinted = _hint_variant(base, fr, s, rng)
            if hinted is not None:
                variants.append(hinted)
            for cand in variants:
                ev = Evaluator._over(fr, cand)
                if not ev.sequent_valid(s):
                    witness = ev.falsifying_world(s)
                    if witness is None:
                        continue
                    return Countermodel(cand, witness)
    return None

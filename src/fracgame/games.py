"""Strictly positive coalitional games and their fractional solution sets.

A coalition is a bitmask over player indices 0..n-1 (bit i set means player
i belongs).  A game stores one value per nonempty coalition; multi-player
coalitions must have strictly positive value, singletons only nonnegative.

Games come in two arithmetic modes.  In ``exact`` mode all values are ints
or Fractions and comparisons are exact.  In ``float`` mode (games built from
risk scenarios, where square roots and quadrature appear) every ``x >= y``
test is taken as ``x >= y - tol*max(1, |x|, |y|)`` so that closed-set
membership is never lost to rounding.
"""

from __future__ import annotations

import hashlib
import json
import math
import string
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DimensionMismatch, InvalidGameError, InvalidPartition

MAX_PLAYERS = 16
DEFAULT_TOL = 1e-9

EXACT = "exact"
FLOAT = "float"


# ---------------------------------------------------------------------------
# coalition bitmask helpers


def mask_of(players: Iterable[int]) -> int:
    mask = 0
    for i in players:
        mask |= 1 << i
    return mask


def members(mask: int) -> list[int]:
    """Player indices of a coalition, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def coalitions(n: int) -> range:
    """All nonempty coalitions of n players."""
    return range(1, 1 << n)


def remap(local: int, mem: Sequence[int]) -> int:
    """Scatter a mask over positions 0..k-1 onto players: bit j becomes
    bit ``mem[j]``."""
    out = 0
    while local:
        low = local & -local
        out |= 1 << mem[low.bit_length() - 1]
        local ^= low
    return out


def integer_terms(xs: Sequence) -> tuple[list, int]:
    """``(terms, scale)`` with ``xs[i] == terms[i] / scale``: integer
    numerators over the numbers' common denominator.  Ints and Fractions are
    read as they are; anything else (a float) is converted exactly through
    ``Fraction`` first; all ints come back as they are, over 1."""
    if {*map(type, xs)} == {int}:
        return list(xs), 1
    xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in xs]
    scale = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (scale // x.denominator) for x in xs], scale


def subset_sums(terms: Sequence, block: int, sums: list | None = None) -> list:
    """``sums[c]``, for every nonempty submask ``c`` of ``block``, is the sum
    of ``terms[i]`` over the members i of c, built up over ascending submasks
    from ``sums[c ^ lowest member of c]``, so float sums are always added in
    one order.  Fills ``sums`` (default: zeros up to ``block``) in place and
    returns it; other masks keep their entries."""
    if sums is None:
        sums = [0] * (block + 1)
    mask = block & -block
    while mask:
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + terms[low.bit_length() - 1]
        mask = (mask - block) & block
    return sums


def submasks(mask: int, proper: bool = False) -> Iterator[int]:
    """Nonempty submasks of ``mask``, descending; skips ``mask`` if proper."""
    s = (mask - 1) & mask if proper else mask
    while s:
        yield s
        s = (s - 1) & mask


# ---------------------------------------------------------------------------
# tolerant comparisons


def geq(a, b, tol: float = 0.0) -> bool:
    """a >= b, slackened by tol*max(1, |a|, |b|) when tol > 0."""
    if tol:
        return a >= b - tol * max(1.0, abs(a), abs(b))
    return a >= b


def leq(a, b, tol: float = 0.0) -> bool:
    return geq(b, a, tol)


def combined_tol(g1: "Game", g2: "Game") -> float:
    return max(g1.tol, g2.tol)


# ---------------------------------------------------------------------------
# validation


MISSING_COALITION = "MissingCoalition"
NON_POSITIVE_VALUE = "NonPositiveValue"
NEGATIVE_SINGLETON = "NegativeSingleton"


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    coalition: int


@dataclass(frozen=True)
class ValidationReport:
    n: int
    issues: tuple[ValidationIssue, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.issues


def _check_number(value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise ValueError(f"coalition value {value!r} is not a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"coalition value {value!r} is not finite")


def validate_game(n: int, values: Mapping[int, object]) -> ValidationReport:
    """Check a candidate value table: every nonempty coalition present,
    singletons nonnegative, larger coalitions strictly positive."""
    if not 1 <= n <= MAX_PLAYERS:
        raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {n}")
    issues = []
    for mask in coalitions(n):
        if mask not in values:
            issues.append(ValidationIssue(MISSING_COALITION, mask))
            continue
        v = values[mask]
        _check_number(v)
        if mask.bit_count() == 1:
            if v < 0:
                issues.append(ValidationIssue(NEGATIVE_SINGLETON, mask))
        elif v <= 0:
            issues.append(ValidationIssue(NON_POSITIVE_VALUE, mask))
    return ValidationReport(n, tuple(issues))


# ---------------------------------------------------------------------------
# the game type


@dataclass(frozen=True)
class Game:
    """Immutable coalition-value table.

    ``values`` is indexed directly by coalition bitmask (slot 0 unused).
    """

    n: int
    values: tuple
    mode: str = EXACT
    tol: float = 0.0
    players: tuple[str, ...] = ()

    @property
    def grand(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def terms(self) -> tuple:
        """The values as ints over one common denominator, built on first
        read (``integer_terms``; slot 0 holds 0).  A subgame's are a slice of
        its root game's, so every block of one game shares one scale."""
        root, index = self.__dict__.get("origin", (None, None))
        if root is None:
            return tuple(integer_terms((0, *self.values[1:]))[0])
        return tuple(map(root.terms.__getitem__, index))

    def cover(self) -> int:
        """w(N) on the scale of ``terms``: the most a partition of the players
        is worth, read from the root game's subset DP (built on first use)."""
        root, index = self.__dict__.get("origin", (self, [self.grand]))
        return root._covers[index[-1]]

    @cached_property
    def _covers(self) -> list:
        """The superadditive cover w(S) = max(v(S), max over proper A of w(A)
        + w(S - A)) of every coalition, in O(3^n) (Yeh 1986)."""
        w = list(self.terms)
        for s in range(3, len(w)):
            low, best = s & -s, w[s]
            rest = sub = s ^ low
            while sub:
                sub = (sub - 1) & rest
                if (x := w[low | sub] + w[rest ^ sub]) > best:
                    best = x
            w[s] = best
        return w

    def coalition_label(self, coalition: int) -> str:
        return coalition_label(coalition, self.players)


def default_players(n: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:n])


def _check_players(players: Sequence[str], n: int) -> tuple[str, ...]:
    """The names as a tuple when they are n distinct names that a coalition
    label can spell: not empty, no ',' or '|', and no whitespace around
    them, which ``coalition_from_label`` strips."""
    players = tuple(players)
    if len(players) != n or len(set(players)) != n:
        raise ValueError("players must be n distinct names")
    for name in players:
        if not name or name != name.strip() or "," in name or "|" in name:
            raise ValueError(
                f"player name {name!r} may not be empty, contain ',' or '|', "
                "or start or end with whitespace"
            )
    return players


def make_game(
    n: int,
    values: Mapping[int, object],
    *,
    mode: str | None = None,
    tol: float | None = None,
    players: Sequence[str] | None = None,
) -> Game:
    report = validate_game(n, values)
    players = default_players(n) if players is None else _check_players(players, n)
    if not report.valid:
        raise InvalidGameError(report, lambda mask: coalition_label(mask, players))
    any_float = any(isinstance(values[m], float) for m in coalitions(n))
    if mode is None:
        mode = FLOAT if any_float else EXACT
    elif mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    if mode == EXACT and any_float:
        raise ValueError("exact mode requires int or Fraction values")
    if tol is None:
        tol = DEFAULT_TOL if mode == FLOAT else 0.0
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be a finite nonnegative number, got {tol!r}")
    if mode == EXACT and tol:
        raise ValueError("exact mode has no tolerance")
    table = (None, *(values[m] for m in coalitions(n)))
    return Game(n, table, mode, float(tol), players)


# ---------------------------------------------------------------------------
# fractional solution sets


def boundary_contains(game: Game, coalition: int, shares: Sequence) -> bool:
    """Membership of a share vector (indexed by the coalition's members in
    ascending order) in the coalition's set of individually rational,
    efficient splits.  Singleton coalitions admit exactly the share 1."""
    mem = members(coalition)
    if not mem:
        raise InvalidPartition("empty coalition")
    if len(shares) != len(mem):
        raise DimensionMismatch(f"expected {len(mem)} shares, got {len(shares)}")
    tol = game.tol
    if len(mem) == 1:
        return geq(shares[0], 1, tol) and leq(shares[0], 1, tol)
    v_c = game.values[coalition]
    total = sum(shares)
    if not (geq(total, 1, tol) and leq(total, 1, tol)):
        return False
    for i, f_i in zip(mem, shares):
        if not leq(f_i, 1, tol):
            return False
        if not geq(v_c * f_i, game.values[1 << i], tol):
            return False
    return True


def split_terms(game: Game, coalition: int) -> tuple[int, list]:
    """``(whole, lone)``: the coalition's value and its members' values, read
    from the game's ``terms``, so member i's lower bound on a split is
    ``lone[i] / whole``, the leftover ``1 - sum(lone) / whole``."""
    terms = game.terms
    return terms[coalition], [terms[1 << i] for i in members(coalition)]


def boundary_empty(game: Game, coalition: int) -> bool:
    """Whether the coalition's split set is empty, decided exactly: it is
    empty iff the members' stand-alone values sum above the coalition value."""
    if coalition.bit_count() == 1:
        return False
    whole, lone = split_terms(game, coalition)
    return sum(lone) > whole


def split_point(game: Game, coalition: int, at: int | None = None) -> tuple | None:
    """A point of the coalition's split set in closed form, as Fractions:
    every member at its lower bound and the whole leftover on member ``at``
    (an index into ``members``), a vertex, of which member 0's is the point
    ``linfeas.feasible``'s phase 1 ends on; with no ``at``, the leftover
    spread evenly, the center, the set's max-slack point.  None when the set
    is empty; the share 1 for a singleton."""
    if coalition.bit_count() == 1:
        return (Fraction(1),)
    whole, lone = split_terms(game, coalition)
    rest = whole - sum(lone)
    if rest < 0:
        return None
    if at is None:
        k = len(lone)
        return tuple(Fraction(k * a + rest, k * whole) for a in lone)
    lone[at] += rest
    return tuple(Fraction(a, whole) for a in lone)


def split_vertices(game: Game, coalition: int) -> list[tuple]:
    """The vertices of the coalition's split set (``split_point`` at each
    member), sorted and without repeats as ``linfeas.vertices`` gives them;
    empty when the set is."""
    points = {split_point(game, coalition, j) for j in range(coalition.bit_count())}
    return sorted(points - {None})


def check_partition(n: int, blocks: Sequence[int]) -> None:
    full = (1 << n) - 1
    union = 0
    count = 0
    for b in blocks:
        if b == 0:
            raise InvalidPartition("empty block")
        if b & ~full:
            raise InvalidPartition(f"block {b:#x} outside the {n}-player set")
        union |= b
        count += b.bit_count()
    if union != full or count != n:
        raise InvalidPartition("blocks must be disjoint and cover all players")


def solution_feasible(game: Game, partition: Sequence[int], shares: Sequence) -> bool:
    """Whether the full allocation is blockwise feasible: within every block
    of the partition the owners' shares form a valid split of that block."""
    check_partition(game.n, partition)
    if len(shares) != game.n:
        raise DimensionMismatch(f"expected {game.n} shares, got {len(shares)}")
    for block in partition:
        local = [shares[i] for i in members(block)]
        if not boundary_contains(game, block, local):
            return False
    return True


def subgame(game: Game, coalition: int) -> Game:
    """Restriction of the game to a coalition, players reindexed to 0..k-1,
    keeping its root game and each coalition's mask there (``terms``)."""
    if coalition == game.grand:
        return game
    mem = members(coalition)
    index = [remap(local, mem) for local in range(1 << len(mem))]
    values, players = tuple(map(game.values.__getitem__, index)), tuple(game.players[i] for i in mem)
    sub = Game(len(mem), values, game.mode, game.tol, players)
    root, at = game.__dict__.get("origin", (game, None))
    sub.__dict__["origin"] = root, index if at is None else [at[i] for i in index]
    return sub


def size_values(game: Game) -> tuple | None:
    """``w`` with ``w[s]`` the value of every coalition of s players, when
    the game is size-symmetric: every coalition of one size holds an equal
    (``==``) stored value.  None otherwise, found at the first mismatch.
    ``w[0]`` is None."""
    values = game.values
    by_size = [None] * (game.n + 1)
    for mask in coalitions(game.n):
        s = mask.bit_count()
        if by_size[s] is None:
            by_size[s] = values[mask]
        elif values[mask] != by_size[s]:
            return None
    return tuple(by_size)


def to_fractional(game: Game, amounts: Sequence) -> tuple:
    """Absolute grand-coalition payoffs -> shares of the grand value."""
    if len(amounts) != game.n:
        raise DimensionMismatch(f"expected {game.n} amounts, got {len(amounts)}")
    v_n = game.values[game.grand]
    if game.n == 1 and v_n == 0:
        return (1,)
    if game.mode == EXACT:
        return tuple(Fraction(x) / Fraction(v_n) for x in amounts)
    return tuple(x / v_n for x in amounts)


def to_absolute(game: Game, shares: Sequence) -> tuple:
    """Shares of the grand value -> absolute payoffs."""
    if len(shares) != game.n:
        raise DimensionMismatch(f"expected {game.n} shares, got {len(shares)}")
    v_n = game.values[game.grand]
    return tuple(f * v_n for f in shares)


GRAIN = 1 << 20


def boundary_draws(game: Game, coalition: int, rng, count: int) -> Iterator[tuple] | None:
    """``count`` draws ``(terms, scale)`` from the coalition's split set,
    share j of a draw being ``terms[j] / scale``, or None, taking no rng
    value, when the split set is empty.  The bounds are derived once, and
    the draws come lazily, each taking its rng values as it is made: k-1
    ``randrange(2^20+1)`` cuts for k members on exact games, k-1
    ``random()`` cuts on float games, and none for a singleton or a float
    coalition whose bounds already sum to 1 within tolerance (it draws the
    bounds).  Share j is ``lower_j + leftover * gap_j``, with the sorted
    cuts splitting ``GRAIN`` (1.0 on float games) into gaps: exact games
    draw int terms over ``v(C)*2^20`` (v(C) scaled to an integer), float
    games their float shares over 1, and singletons the share 1 over 1."""
    mem, exact = members(coalition), game.mode == EXACT
    cuts = len(mem) - 1
    if not cuts:
        lower, scale = (1 if exact else 1.0,), 1
    elif exact:
        whole, lone = split_terms(game, coalition)
        rest = whole - sum(lone)
        if rest < 0:
            return None
        lower, scale = [a * GRAIN for a in lone], whole * GRAIN
        ends, cut = (0, GRAIN), partial(rng.randrange, GRAIN + 1)
    else:
        v_c = game.values[coalition]
        lower = tuple(game.values[1 << i] / v_c for i in mem)
        total = sum(lower)
        rest, scale = 1.0 - total, 1
        ends, cut = (0.0, 1.0), rng.random
        if rest < 0:  # degenerate within tolerance: the bounds themselves
            if not geq(1.0, total, game.tol):
                return None
            cuts = 0
    if not cuts:
        return repeat((lower, scale), count)

    def draw() -> tuple:
        points = [ends[0], *sorted(cut() for _ in range(cuts)), ends[1]]
        return tuple((b - a) * rest + low for a, b, low in zip(points, points[1:], lower)), scale

    return (draw() for _ in range(count))


def draw_shares(terms: Sequence, scale: int) -> tuple:
    """The shares ``terms[j] / scale`` of a draw: the terms themselves over
    scale 1, Fractions otherwise."""
    if scale == 1:
        return tuple(terms)
    return tuple(Fraction(t, scale) for t in terms)


def sample_boundary(game: Game, coalition: int, rng) -> tuple | None:
    """Random point of the coalition's split set, or None when it is empty.

    Exact games get rational samples, uniform over the lattice of the
    shifted simplex with denominator v(C)*2^20: with the members' values
    a_j and v(C) scaled to integers, share j is
    (a_j*2^20 + rest*gap_j) / (v(C)*2^20), where rest = v(C) - sum(a) and
    the gaps split 2^20.  Float games get Dirichlet-uniform float samples.
    It is the first of ``boundary_draws``, which gives exact samples as
    integer terms without building Fractions.
    """
    draws = boundary_draws(game, coalition, rng, 1)
    return None if draws is None else draw_shares(*next(draws))


# ---------------------------------------------------------------------------
# serialization


def coalition_label(mask: int, players: Sequence[str]) -> str:
    return ",".join(players[i] for i in members(mask))


def json_number(x):
    """A number as reports print it: Fractions as strings, the rest as is."""
    return str(x) if isinstance(x, Fraction) else x


def json_text(payload) -> str:
    """The bytes of ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``,
    written without the pure-Python encoder that ``indent`` puts json on."""
    return json_value(payload, 0) + "\n"


def json_value(o, depth: int) -> str:
    """One value as ``json_text`` lays it out at the given nesting depth.  All
    but exact str, int, bool, None, finite float, list, tuple and str-keyed
    dict goes to ``json.dumps``, its lines shifted by the depth's pad (exact:
    its ASCII-escaped output holds no raw newline)."""
    kind = type(o)
    if kind is str:
        return encode_basestring_ascii(o)
    if kind is int:
        return int.__repr__(o)
    if kind is bool or o is None:
        return "null" if o is None else "true" if o else "false"
    if kind is float and math.isfinite(o):
        return float.__repr__(o)
    if kind is list or kind is tuple:
        return json_list([json_value(x, depth + 1) for x in o], depth)
    if kind is dict and o:
        keys = tuple(sorted(o))
        if template := json_object(keys, depth):
            return template.format(*[json_value(o[k], depth + 1) for k in keys])
    return json.dumps(o, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def json_list(items: Sequence[str] | None, depth: int) -> str:
    """Encoded items (None: JSON null) as ``json_text`` lays out an array
    that opens on a line of the given nesting depth."""
    if not items:
        return "null" if items is None else "[]"
    pad = "  " * depth
    return "[\n  " + pad + (",\n  " + pad).join(items) + "\n" + pad + "]"


@lru_cache(maxsize=1024)
def json_object(keys: tuple[str, ...], depth: int) -> str | None:
    """The ``str.format`` template, a field per key, of an object with these
    sorted keys as ``json_text`` lays it out at a depth; None unless all str."""
    if all(type(k) is str for k in keys):
        pad = "  " * depth
        keys = [encode_basestring_ascii(k).replace("{", "{{").replace("}", "}}") for k in keys]
        return "{{\n" + ",\n".join(f"{pad}  {k}: {{}}" for k in keys) + "\n" + pad + "}}"


def coalition_from_label(label: str, players: Sequence[str] | dict[str, int]) -> int:
    """The mask of a label such as ``"a,c"``: the players in order, or a
    dict from each name to its index, built once for many labels."""
    index = players if isinstance(players, dict) else {name: i for i, name in enumerate(players)}
    mask = 0
    for name in label.split(","):
        name = name.strip()
        if name not in index:
            raise ValueError(f"unknown player {name!r}")
        bit = 1 << index[name]
        if mask & bit:
            raise ValueError(f"player {name!r} repeated in coalition {label!r}")
        mask |= bit
    return mask


def _encode_value(v):
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else int(v)
    return v


def _decode_value(raw):
    if isinstance(raw, bool):
        raise ValueError(f"coalition value {raw!r} is not a number")
    if isinstance(raw, (int, float)):
        return raw
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except ZeroDivisionError:
            raise ValueError(f"coalition value {raw!r} divides by zero") from None
    raise ValueError(f"cannot parse coalition value {raw!r}")


def game_to_dict(game: Game) -> dict:
    return {
        "players": list(game.players),
        "mode": game.mode,
        "tolerance": game.tol,
        "values": {
            game.coalition_label(m): _encode_value(game.values[m]) for m in coalitions(game.n)
        },
    }


def game_from_dict(data: Mapping) -> Game:
    if not isinstance(data, Mapping):
        raise ValueError("game JSON must be an object")
    players = data.get("players")
    if not players or not isinstance(players, list):
        raise ValueError("game JSON needs a nonempty 'players' list")
    n = len(players)
    players = _check_players([str(p) for p in players], n)
    if "values" not in data or not isinstance(data["values"], Mapping):
        raise ValueError("game JSON needs a 'values' object")
    table: dict[int, object] = {}
    index = {name: i for i, name in enumerate(players)}
    for label, raw in data["values"].items():
        mask = coalition_from_label(label, index)
        if mask in table:
            raise ValueError(f"coalition {label!r} listed twice")
        table[mask] = _decode_value(raw)
    mode = data.get("mode")
    tol = data.get("tolerance")
    return make_game(n, table, mode=mode, tol=tol, players=players)


def load_game(path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return game_from_dict(json.load(fh))


def save_game(game: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(game_to_dict(game)))


def game_digest(game: Game) -> str:
    blob = json.dumps(game_to_dict(game), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

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
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import DimensionMismatch, InvalidGameError, InvalidPartition

MAX_PLAYERS = 16
DEFAULT_TOL = 1e-9

EXACT = "exact"
FLOAT = "float"


# ---------------------------------------------------------------------------
# coalition bitmask helpers


def full_mask(n: int) -> int:
    return (1 << n) - 1


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

    def value(self, coalition: int):
        return self.values[coalition]

    def coalition_label(self, coalition: int) -> str:
        return coalition_label(coalition, self.players)

    def partition_label(self, partition: Sequence[int]) -> str:
        return "|".join(self.coalition_label(b) for b in partition)


def default_players(n: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:n])


def make_game(
    n: int,
    values: Mapping[int, object],
    *,
    mode: str | None = None,
    tol: float | None = None,
    players: Sequence[str] | None = None,
) -> Game:
    report = validate_game(n, values)
    if not report.valid:
        raise InvalidGameError(report)
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
    if players is None:
        players = default_players(n)
    else:
        players = tuple(players)
        if len(players) != n or len(set(players)) != n:
            raise ValueError("players must be n distinct names")
        for name in players:
            if not name or "," in name or "|" in name:
                raise ValueError(f"player name {name!r} may not be empty or contain ',' or '|'")
    table = [None] * (1 << n)
    for m in coalitions(n):
        table[m] = values[m]
    return Game(n, tuple(table), mode, float(tol), players)


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


def boundary_empty(game: Game, coalition: int) -> bool:
    """Whether the coalition's split set is empty, decided exactly: it is
    empty iff the members' stand-alone values sum above the coalition value."""
    mem = members(coalition)
    if len(mem) == 1:
        return False
    lone = sum(Fraction(game.values[1 << i]) for i in mem)
    return lone > Fraction(game.values[coalition])


def check_partition(n: int, blocks: Sequence[int]) -> None:
    full = full_mask(n)
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
    """Restriction of the game to a coalition, players reindexed to 0..k-1."""
    mem = members(coalition)
    k = len(mem)
    table = [None] * (1 << k)
    for local in coalitions(k):
        table[local] = game.values[remap(local, mem)]
    return Game(k, tuple(table), game.mode, game.tol, tuple(game.players[i] for i in mem))


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


def boundary_sampler(game: Game) -> Callable[[int, object], tuple | None]:
    """Draws from the coalitions' split sets, bound to one game: each draw
    is ``(terms, scale)`` with share j equal to ``terms[j] / scale``, or
    None when the split set is empty.  Exact games draw integer terms over
    ``v(C)*2^20`` (v(C) scaled to an integer), float games their float
    shares over 1, and singletons the share 1 over 1.  Each coalition's lower
    bounds and leftover are derived on its first draw and reused after, and
    every draw takes the same rng values as ``sample_boundary``."""
    exact = game.mode == EXACT
    grain = 1 << 20
    bounds = {}

    def derive(coalition: int):
        mem = members(coalition)
        v_c = game.values[coalition]
        if exact:
            # exact values are ints or Fractions, both with numerator/denominator
            values = [game.values[1 << i] for i in mem]
            unit = math.lcm(v_c.denominator, *(a.denominator for a in values))
            lone = [a.numerator * (unit // a.denominator) for a in values]
            whole = v_c.numerator * (unit // v_c.denominator)
            return [a * grain for a in lone], whole * grain, whole - sum(lone)
        lbs = [game.values[1 << i] / v_c for i in mem]
        total = sum(lbs)
        return lbs, total, 1.0 - total

    def sample(coalition: int, rng) -> tuple | None:
        k = coalition.bit_count()
        if k == 1:
            return ((1,) if exact else (1.0,)), 1
        found = bounds.get(coalition)
        if found is None:
            found = bounds[coalition] = derive(coalition)
        if exact:
            lone, den, rest = found
            if rest < 0:
                return None
            if k == 2:  # a pair block: one cut, nothing to sort
                cut = rng.randrange(grain + 1)
                return (lone[0] + rest * cut, lone[1] + rest * (grain - cut)), den
            cuts = sorted(rng.randrange(grain + 1) for _ in range(k - 1))
            cuts = [0] + cuts + [grain]
            return tuple(a + rest * (cuts[j + 1] - cuts[j]) for j, a in enumerate(lone)), den
        lbs, total, s = found
        if s < 0:
            if geq(1.0, total, game.tol):
                return tuple(lbs), 1
            return None
        cuts = sorted(rng.random() for _ in range(k - 1))
        cuts = [0.0] + cuts + [1.0]
        return tuple(lb + s * (cuts[j + 1] - cuts[j]) for j, lb in enumerate(lbs)), 1

    return sample


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
    Repeated draws from one game go through ``boundary_sampler``, which
    gives exact samples as integer terms without building Fractions.
    """
    drawn = boundary_sampler(game)(coalition, rng)
    return None if drawn is None else draw_shares(*drawn)


# ---------------------------------------------------------------------------
# serialization


def coalition_label(mask: int, players: Sequence[str]) -> str:
    return ",".join(players[i] for i in members(mask))


def json_number(x):
    """A number as reports print it: Fractions as strings, the rest as is."""
    return str(x) if isinstance(x, Fraction) else x


def coalition_from_label(label: str, players: Sequence[str]) -> int:
    index = {name: i for i, name in enumerate(players)}
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
        return Fraction(raw)
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
    players = data.get("players")
    if not players:
        raise ValueError("game JSON needs a nonempty 'players' list")
    players = [str(p) for p in players]
    n = len(players)
    if "values" not in data or not isinstance(data["values"], Mapping):
        raise ValueError("game JSON needs a 'values' object")
    table: dict[int, object] = {}
    for label, raw in data["values"].items():
        mask = coalition_from_label(label, players)
        if mask in table:
            raise ValueError(f"coalition {label!r} listed twice")
        table[mask] = _decode_value(raw)
    mode = data.get("mode")
    tol = data.get("tolerance")
    return make_game(n, table, mode=mode, tol=tol, players=players)


def load_game(path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return game_from_dict(data)


def save_game(game: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game), fh, indent=2, sort_keys=True)
        fh.write("\n")


def game_digest(game: Game) -> str:
    blob = json.dumps(game_to_dict(game), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

import enum
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fracgame import (
    DimensionMismatch,
    InvalidGameError,
    InvalidPartition,
    boundary_contains,
    boundary_empty,
    coalition_from_label,
    game_digest,
    game_from_dict,
    game_to_dict,
    load_game,
    make_game,
    mask_of,
    members,
    partition_label,
    sample_boundary,
    save_game,
    solution_feasible,
    subgame,
    to_absolute,
    to_fractional,
    validate_game,
)
from fracgame.games import boundary_draws, integer_terms, json_text, remap, size_values
from conftest import cut_game, naive_sample_boundary, random_exact_game, random_float_game


def test_mask_helpers():
    assert mask_of([0, 2]) == 0b101
    assert members(0b1011) == [0, 1, 3]
    assert members(0) == []


def test_validate_flags_each_issue_kind():
    report = validate_game(2, {1: 1, 2: -1, 3: 0})
    kinds = sorted(issue.kind for issue in report.issues)
    assert kinds == ["NegativeSingleton", "NonPositiveValue"]
    assert not report.valid
    report = validate_game(2, {1: 0, 3: 2})
    assert [i.kind for i in report.issues] == ["MissingCoalition"]
    assert report.issues[0].coalition == 2


def test_make_game_rejects_invalid():
    with pytest.raises(InvalidGameError):
        make_game(2, {1: 1, 2: 1, 3: -5})
    with pytest.raises(ValueError):
        make_game(2, {1: 1, 2: 1, 3: float("nan")}, mode="float", tol=1e-9)
    with pytest.raises(ValueError):
        make_game(2, {1: 0.5, 2: 1, 3: 2}, mode="exact")
    with pytest.raises(ValueError):
        make_game(2, {1: 1, 2: 1, 3: 2}, players=["a", "a"])


@pytest.mark.parametrize(
    "tol", [True, False, -1e-9, float("nan"), float("inf"), "0.1", Fraction(1, 10)]
)
def test_make_game_rejects_tolerances_that_are_not_finite_nonnegative_numbers(tol):
    with pytest.raises(ValueError, match="tolerance must be a finite nonnegative number"):
        make_game(2, {1: 1.0, 2: 1.0, 3: 3.0}, tol=tol)


def test_make_game_accepts_finite_nonnegative_tolerances():
    assert make_game(2, {1: 1.0, 2: 1.0, 3: 3.0}, tol=0).tol == 0.0
    assert make_game(2, {1: 1.0, 2: 1.0, 3: 3.0}, tol=1e-6).tol == 1e-6
    assert make_game(2, {1: 1, 2: 1, 3: 3}, tol=0.0).mode == "exact"


def test_mode_inference_and_labels():
    g = make_game(2, {1: 1, 2: Fraction(1, 2), 3: 2})
    assert g.mode == "exact" and g.tol == 0.0
    f = make_game(2, {1: 1.0, 2: 0.5, 3: 2.0})
    assert f.mode == "float" and f.tol > 0
    assert g.coalition_label(3) == "a,b"
    assert partition_label([1, 2], g.players) == "a|b"


def test_boundary_membership_singletons_and_pairs():
    g = make_game(2, {1: 1, 2: 2, 3: 4})
    assert boundary_contains(g, 1, (1,))
    assert not boundary_contains(g, 1, (Fraction(9, 10),))
    # pair block: lower bounds 1/4 and 1/2
    assert boundary_contains(g, 3, (Fraction(1, 4), Fraction(3, 4)))
    assert boundary_contains(g, 3, (Fraction(1, 2), Fraction(1, 2)))
    assert not boundary_contains(g, 3, (Fraction(1, 5), Fraction(4, 5)))
    assert not boundary_contains(g, 3, (Fraction(1, 4), Fraction(1, 2)))
    with pytest.raises(DimensionMismatch):
        boundary_contains(g, 3, (1,))


def test_boundary_empty_iff_singletons_exceed_value():
    g = make_game(2, {1: 3, 2: 2, 3: 4})
    assert boundary_empty(g, 3)
    assert not boundary_empty(g, 1)
    h = make_game(2, {1: 2, 2: 2, 3: 4})
    assert not boundary_empty(h, 3)  # knife edge: single point (1/2, 1/2)
    assert boundary_contains(h, 3, (Fraction(1, 2), Fraction(1, 2)))


def test_solution_feasible_blockwise(superadditive3):
    assert solution_feasible(superadditive3, [7], (Fraction(1, 3),) * 3)
    assert solution_feasible(superadditive3, [3, 4], (Fraction(1, 2), Fraction(1, 2), 1))
    assert not solution_feasible(superadditive3, [3, 4], (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(InvalidPartition):
        solution_feasible(superadditive3, [3, 3], (1, 1, 1))


def test_float_tolerance_accepts_near_boundary():
    g = make_game(2, {1: 1.0, 2: 1.0, 3: 3.0}, mode="float", tol=1e-9)
    third = 1.0 / 3.0
    assert boundary_contains(g, 3, (third, 1.0 - third))
    assert boundary_contains(g, 3, (third - 1e-12, 1.0 - third + 1e-12))
    assert not boundary_contains(g, 3, (third - 1e-6, 1.0 - third + 1e-6))


def test_subgame_remaps_values(superadditive3):
    sub = subgame(superadditive3, 0b101)
    assert sub.n == 2
    assert sub.players == ("a", "c")
    assert sub.values[1] == 1 and sub.values[2] == 1 and sub.values[3] == 3


def test_conversions_round_trip(superadditive3):
    shares = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    amounts = to_absolute(superadditive3, shares)
    assert amounts == (3, 2, 1)
    assert to_fractional(superadditive3, amounts) == shares


def test_conversions_on_float_and_lone_games(superadditive3):
    floats = make_game(2, {1: 0.5, 2: 0.5, 3: 2.0})
    assert to_fractional(floats, (1.5, 0.5)) == (0.75, 0.25)
    assert to_absolute(floats, (0.75, 0.25)) == (1.5, 0.5)
    # a lone player worth nothing holds the whole share
    assert to_fractional(make_game(1, {1: 0}), (0,)) == (1,)
    for convert in (to_fractional, to_absolute):
        with pytest.raises(DimensionMismatch, match="expected 3 .*, got 2"):
            convert(superadditive3, (1, 2))


def test_sample_boundary_lands_inside():
    rng = random.Random(7)
    for trial in range(200):
        n = rng.randint(2, 5)
        g = random_exact_game(rng, n) if trial % 2 else random_float_game(rng, n)
        mask = rng.randrange(1, 1 << n)
        point = sample_boundary(g, mask, rng)
        if point is None:
            assert boundary_empty(g, mask)
        else:
            assert boundary_contains(g, mask, point)


def test_sample_boundary_exact_empty_returns_none():
    g = make_game(2, {1: 3, 2: 2, 3: 4})
    assert sample_boundary(g, 3, random.Random(0)) is None


def _draws_match_reference(games) -> int:
    """Draw every coalition of each game three times over, two draws at a
    time, through sample_boundary and through boundary_draws, against the
    reference formula: same points, same rng draws, each draw taking its rng
    values as it is made.  A boundary_draws draw is ``(terms, scale)``: on
    exact games int terms whose quotients by the int scale are the point,
    on float games the point itself over 1; an empty split set draws None
    and takes no rng value.  Returns how many draws found an empty split
    set."""
    empty = 0
    for k, g in enumerate(games):
        fast, slow, lazy = random.Random(k), random.Random(k), random.Random(k)
        for _ in range(3):
            for mask in range(1, 1 << g.n):
                draws = boundary_draws(g, mask, lazy, 2)
                for _ in range(2):
                    want = naive_sample_boundary(g, mask, slow)
                    assert sample_boundary(g, mask, fast) == want
                    if want is None:
                        assert draws is None
                    elif g.mode == "exact":
                        terms, scale = next(draws)
                        assert all(type(t) is int for t in (*terms, scale))
                        assert tuple(Fraction(t, scale) for t in terms) == want
                    else:
                        assert next(draws) == (want, 1)
                    assert fast.getstate() == slow.getstate() == lazy.getstate()
                    empty += want is None
                assert draws is None or next(draws, None) is None
    return empty


def test_exact_sample_boundary_matches_reference_formula():
    # int-valued (generated pairs) and Fraction-valued exact games, every
    # coalition including empty split sets
    from fracgame import generate_ordered_pair

    rng = random.Random(19)
    games = []
    for _ in range(12):
        n = rng.randint(2, 5)
        games.extend(generate_ordered_pair(rng.randrange(1 << 30), n))
        games.append(random_exact_game(rng, n))
    assert _draws_match_reference(games) > 0


def test_float_sample_boundary_matches_reference_formula():
    # and a pair whose bounds overshoot 1 within tolerance: drawn as its
    # bounds, without rng values
    rng = random.Random(23)
    games = [random_float_game(rng, rng.randint(2, 5)) for _ in range(12)]
    degenerate = make_game(3, {1: 0.5, 2: 0.5 + 1e-12, 4: 1.0, 3: 1.0, 5: 2.0, 6: 2.0, 7: 3.0})
    rng = random.Random(0)
    state = rng.getstate()
    assert list(boundary_draws(degenerate, 3, rng, 2)) == [((0.5, 0.5 + 1e-12), 1)] * 2
    assert rng.getstate() == state
    assert _draws_match_reference([*games, degenerate]) > 0


def test_labels_round_trip():
    players = ("x", "y", "z")
    assert coalition_from_label("y,z", players) == 0b110
    # an index built once for many labels reads them alike
    assert coalition_from_label("y,z", {"x": 0, "y": 1, "z": 2}) == 0b110
    with pytest.raises(ValueError):
        coalition_from_label("w", players)
    with pytest.raises(ValueError):
        coalition_from_label("x,x", players)


def test_serialization_round_trip(tmp_path, superadditive3):
    path = tmp_path / "game.json"
    save_game(superadditive3, path)
    loaded = load_game(path)
    assert loaded == superadditive3
    assert game_digest(loaded) == game_digest(superadditive3)


def test_serialization_preserves_fractions(tmp_path):
    g = make_game(2, {1: Fraction(1, 3), 2: 1, 3: Fraction(7, 2)})
    path = tmp_path / "frac.json"
    save_game(g, path)
    data = json.loads(path.read_text())
    assert data["values"]["a"] == "1/3"
    assert load_game(path).values[1] == Fraction(1, 3)


def test_float_games_serialize_floats(tmp_path):
    rng = random.Random(3)
    g = random_float_game(rng, 3)
    path = tmp_path / "float.json"
    save_game(g, path)
    loaded = load_game(path)
    assert loaded.mode == "float"
    assert all(
        math.isclose(loaded.values[c], g.values[c], rel_tol=0, abs_tol=0)
        for c in range(1, 8)
    )


def test_game_from_dict_rejects_duplicates_and_unknowns():
    base = {"players": ["a", "b"], "values": {"a": 1, "b": 1, "a,b": 3}}
    bad = dict(base, values=dict(base["values"], **{"c": 1}))
    with pytest.raises(ValueError):
        game_from_dict(bad)
    with pytest.raises(ValueError):
        game_from_dict({"players": [], "values": {}})


def test_digest_changes_with_values(superadditive3, additive3):
    assert game_digest(superadditive3) != game_digest(additive3)
    assert game_to_dict(superadditive3)["mode"] == "exact"


def test_size_values_reads_one_value_per_size():
    by_size = {1: 0, 2: 3, 3: Fraction(9, 2), 4: 6}
    game = make_game(4, {m: by_size[m.bit_count()] for m in range(1, 16)})
    assert size_values(game) == (None, 0, 3, Fraction(9, 2), 6)
    # equal values of different types are equal
    mixed = dict(enumerate(game.values[1:], 1))
    mixed[5] = Fraction(mixed[5])
    assert size_values(make_game(4, mixed)) == size_values(game)
    floats = make_game(3, {m: 1.5 * m.bit_count() for m in range(1, 8)})
    assert size_values(floats) == (None, 1.5, 3.0, 4.5)
    assert size_values(make_game(1, {1: 2})) == (None, 2)


@pytest.mark.parametrize("mask", [1, 6, 9, 14, 15])
def test_size_values_refuses_a_value_one_ulp_off(mask):
    values = {m: 0.7 * m.bit_count() for m in range(1, 16)}
    values[mask] = math.nextafter(values[mask], 0.0)
    game = make_game(4, values)
    # the grand coalition is alone in its size
    assert (size_values(game) is None) == (mask != 15)
    assert size_values(random_exact_game(random.Random(0), 4)) is None


class _Level(enum.IntEnum):
    LOW = 3


class _Label(str):
    pass


class _Loud(float):
    """A float that prints itself otherwise: json writes its float value."""

    def __repr__(self):
        return "loud"

    __str__ = __repr__

    def __format__(self, spec):
        return "loud"


_KEYS = ['say "hi"', "{0}", "}{", "{{x}}", "{", "tab\there", "line\nbreak", "\x00\x1f\x7f",
         "caf\u00e9", "\u65e5\u672c", "\ud83d", "\\", "", "9", "10", "a", "b"]
_SCALARS = [0, -1, 9, 10, 2**64 + 1, -(2**70), 0.1, -0.0, 5e-324, 1e308, 1.5e-7, math.nan,
            math.inf, -math.inf, True, False, None, "", "x", "caf\u00e9", "{}", "\n\"",
            np.float64(0.25), np.float64(-0.0), _Level.LOW, _Label("l{a}b"), _Loud(1.5)]
_KEY_SETS = [[9, 10], [10, 9, -1, 2**65], [0.5, -0.0, 1e308, 5e-324, 2], [True, False],
             [None], [_Label("b"), _Label("a")], [1, 2.5]]
_BAD = [{1: 0, "a": 1}, {None: 0, True: 1}, {(1, 2): 0}, {1, 2}, object(), Fraction(1, 3), b"x"]


def _payload(rng, depth):
    """A random JSON value up to ``depth`` containers deep."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(_SCALARS)
    width = rng.choice([0, 1, 2, 3, 5])
    if roll < 0.55:
        items = [_payload(rng, depth - 1) for _ in range(width)]
        return tuple(items) if rng.random() < 0.3 else items
    if rng.random() < 0.2:
        keys = rng.choice(_KEY_SETS)
    else:
        keys = rng.sample(_KEYS, min(width, len(_KEYS)))
    return {k: _payload(rng, depth - 1) for k in keys}


def test_json_text_writes_the_bytes_of_json_dumps():
    # the writer against json.dumps(sort_keys=True, indent=2) itself, on
    # random nested payloads: escaped and brace-bearing keys, every float
    # json spells its own way, ints past 64 bits, non-str keys (sorted by
    # the key, not its text: 9 before 10), subclasses json writes as their
    # base type, empty containers; unserializable values and keys of types
    # that do not sort together raise TypeError from both
    rng = random.Random(27)
    written = raised = 0
    for k in range(400):
        payload = _payload(rng, 6)
        if k % 10 == 0:
            payload = {"bad": [payload, rng.choice(_BAD)]}
        try:
            want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        except TypeError:
            with pytest.raises(TypeError):
                json_text(payload)
            raised += 1
            continue
        assert json_text(payload) == want
        written += 1
    assert written > 300 and raised >= 40
    for keys in _KEY_SETS:
        payload = [{"x": {k: [k] for k in keys}}]
        assert json_text(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# the integer value table


def _table_games():
    rng = random.Random(29)
    games = [random_exact_game(rng, rng.randint(1, 5)) for _ in range(10)]
    games += [random_float_game(rng, rng.randint(1, 5)) for _ in range(10)]
    games += [cut_game(random.Random(3), 5), make_game(3, {m: m.bit_count() for m in range(1, 8)})]
    return games


def test_game_terms_are_the_integer_terms_of_its_values():
    # one int per coalition over one common denominator, floats converted
    # exactly: the terms integer_terms gives for the whole value table
    for game in _table_games():
        assert all(type(t) is int for t in game.terms)
        assert game.terms == (0, *integer_terms(game.values[1:])[0])


def test_subgame_terms_slice_the_root_games_terms():
    # a block's subgame reads its terms off the game it was cut from, on
    # that game's scale, also when cut from a subgame itself; so blocks
    # with equal values have equal terms, the BlockTable's content key
    for game in _table_games():
        for block in range(1, 1 << game.n):
            mem = members(block)
            sub = subgame(game, block)
            assert sub.terms == tuple(game.terms[remap(c, mem)] for c in range(1 << len(mem)))
            inner = (1 << len(mem)) - 2 or 1  # all but the last member
            nested = subgame(sub, inner)
            outer = [mem[i] for i in members(inner)]
            assert nested.terms == tuple(game.terms[remap(c, outer)] for c in range(1 << len(outer)))
    # the scale is the root's, not the block's own denominator
    game = make_game(2, {1: Fraction(1, 2), 2: 1, 3: 3})
    assert game.terms == (0, 1, 2, 6) and subgame(game, 2).terms == (0, 2)


def test_subgame_of_the_grand_coalition_is_the_game_itself():
    # no table is copied for a lone grand block: a root game and a subgame
    # each come back as they are, with the terms, cover and size values of
    # a fresh copy of their table
    for game in _table_games():
        block = game.grand - (game.n > 1)  # all but the first player, if any
        sub = subgame(game, block)
        copies = (
            make_game(game.n, dict(enumerate(game.values))),
            subgame(game, block),
        )
        for g, copy in zip((game, sub), copies):
            assert subgame(g, g.grand) is g
            assert g.terms == copy.terms and g.cover() == copy.cover()
            assert size_values(g) == size_values(copy)

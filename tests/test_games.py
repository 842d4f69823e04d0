import json
import math
import random
from fractions import Fraction

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
    sample_boundary,
    save_game,
    solution_feasible,
    subgame,
    to_absolute,
    to_fractional,
    validate_game,
)
from fracgame.games import boundary_sampler
from conftest import naive_sample_boundary, random_exact_game, random_float_game


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
    assert g.partition_label([1, 2]) == "a|b"


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
    """Draw every coalition of each game three times over, through
    sample_boundary and through one boundary_sampler per game, against the
    reference formula: same points, same rng draws.  A boundary_sampler
    draw is ``(terms, scale)``: on exact games int terms whose quotients by
    the int scale are the point, on float games the point itself over 1.
    Returns how many draws found an empty split set."""
    empty = 0
    for k, g in enumerate(games):
        sample = boundary_sampler(g)
        fast, slow, memo = random.Random(k), random.Random(k), random.Random(k)
        for _ in range(3):
            for mask in range(1, 1 << g.n):
                want = naive_sample_boundary(g, mask, slow)
                assert sample_boundary(g, mask, fast) == want
                drawn = sample(mask, memo)
                if want is None:
                    assert drawn is None
                elif g.mode == "exact":
                    terms, scale = drawn
                    assert all(type(t) is int for t in (*terms, scale))
                    assert tuple(Fraction(t, scale) for t in terms) == want
                else:
                    assert drawn == (want, 1)
                assert fast.getstate() == slow.getstate() == memo.getstate()
                empty += want is None
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
    rng = random.Random(23)
    games = [random_float_game(rng, rng.randint(2, 5)) for _ in range(12)]
    assert _draws_match_reference(games) > 0


def test_labels_round_trip():
    players = ("x", "y", "z")
    assert coalition_from_label("y,z", players) == 0b110
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

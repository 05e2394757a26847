"""Equilibrium maps: pieces, regions, coverage, iteration, composition."""

import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from ltnet import (
    LINEAR,
    SATURATED,
    ZERO,
    AffinePiece,
    NoCoveringPiece,
    NotCertified,
    PiecewiseAffineMap,
    UniquenessNotCertified,
    compose_maps,
    equilibrium_map,
    ges_certificate,
    lipschitz_constant,
    max_gain_matrix,
    piece_for_pattern,
    solve_equilibrium_iterative,
)
from ltnet import equilibria
from ltnet.equilibria import _LP_CHUNK, _QUERY_TILE, _box_empty, _regions_nonempty
from ltnet.network import _regime_rows

from helpers import (
    assert_solved_as_linprog_solves,
    captured_lps,
    clip01m,
    fixed_point,
    joint_fixed_point,
    pattern_piece_oracle,
    random_contractive,
)


def test_piece_all_linear_identity():
    m = np.array([1.0, 2.0])
    piece = piece_for_pattern(np.zeros((2, 2)), m, (LINEAR, LINEAR))
    np.testing.assert_allclose(piece.F, np.eye(2))
    np.testing.assert_allclose(piece.f, np.zeros(2))
    assert piece.contains(np.array([0.5, 1.5]))
    assert not piece.contains(np.array([-0.1, 1.5]))
    assert not piece.contains(np.array([0.5, 2.5]))


def test_piece_all_zero():
    W = np.array([[0.3, -0.2], [0.1, 0.4]])
    piece = piece_for_pattern(W, np.full(2, np.inf), (ZERO, ZERO))
    np.testing.assert_allclose(piece.F, np.zeros((2, 2)))
    np.testing.assert_allclose(piece.f, np.zeros(2))
    assert piece.contains(np.array([-1.0, -0.5]))
    assert not piece.contains(np.array([0.5, -0.5]))


def test_piece_scalar_saturated():
    piece = piece_for_pattern(np.zeros((1, 1)), np.array([1.0]), (SATURATED,))
    np.testing.assert_allclose(piece.F, [[0.0]])
    np.testing.assert_allclose(piece.f, [1.0])
    assert piece.contains(np.array([1.5]))
    assert not piece.contains(np.array([0.5]))


def test_piece_skips_degenerate_patterns():
    with pytest.warns(UserWarning, match="unbounded"):
        out = piece_for_pattern(np.zeros((1, 1)), np.array([np.inf]), (SATURATED,))
    assert out is None
    with pytest.warns(UserWarning, match="singular"):
        out = piece_for_pattern(np.array([[1.0]]), np.array([np.inf]), (LINEAR,))
    assert out is None


def test_map_without_recurrence_is_clip():
    m = np.array([1.0, np.inf, 2.5])
    pa = equilibrium_map(np.zeros((3, 3)), m)
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = rng.uniform(-3.0, 5.0, size=3)
        np.testing.assert_allclose(pa(d), clip01m(d, m), atol=1e-12)


def test_scalar_weak_excitation_map():
    pa = equilibrium_map(np.array([[0.01]]), np.array([np.inf]))
    assert pa(np.array([-1.0]))[0] == 0.0
    np.testing.assert_allclose(pa(np.array([1.0]))[0], 1.0 / 0.99)
    np.testing.assert_allclose(lipschitz_constant(pa), 1.0 / 0.99)
    np.testing.assert_allclose(max_gain_matrix(pa), [[1.0 / 0.99]])


def test_pieces_sorted_and_serializable():
    pa = equilibrium_map(np.zeros((1, 1)), np.array([1.0]))
    assert [p.label for p in pa.pieces] == [(ZERO,), (LINEAR,), (SATURATED,)]
    blob = pa.to_jsonable()
    assert [entry["sigma"] for entry in blob] == [[ZERO], [LINEAR], [SATURATED]]
    assert set(blob[0]) == {"sigma", "F", "f", "G", "g"}
    json.dumps(blob)  # must round-trip through plain JSON types
    assert len(pa) == 3


def test_boundary_consistency():
    pa = equilibrium_map(np.zeros((1, 1)), np.array([1.0]))
    for d in (np.array([0.0]), np.array([1.0])):
        a, b = (p.F @ d + p.f for p in pa.pieces_at(d))
        assert np.max(np.abs(a - b)) < 1e-12
    assert len(pa.pieces_at(np.array([0.5]))) == 1
    assert pa(np.array([1.0]))[0] == 1.0
    assert pa(np.array([0.0]))[0] == 0.0


def test_map_matches_fixed_point_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        W, m = random_contractive(rng, n_max=4)
        pa = equilibrium_map(W, m)
        for _ in range(20):
            d = rng.uniform(-5.0, 5.0, size=W.shape[0])
            np.testing.assert_allclose(pa(d), fixed_point(W, m, d), atol=1e-8)


def test_coverage_at_large_radius():
    rng = np.random.default_rng(17)
    for _ in range(5):
        W, m = random_contractive(rng, n_max=4)
        n = W.shape[0]
        pa = equilibrium_map(W, m)
        finite = m[np.isfinite(m)]
        radius = 10.0 * (1.0 + (finite.max() if finite.size else 0.0))
        D = rng.uniform(-radius, radius, size=(1000, n))
        X = pa.eval_many(D)  # raises NoCoveringPiece on any gap
        # every returned point is a true equilibrium of its input
        resid = X - clip01m(X @ W.T + D, m)
        assert np.max(np.abs(resid)) < 1e-9


def test_eval_many_agrees_with_eval():
    rng = np.random.default_rng(23)
    W, m = random_contractive(rng, n_max=3)
    pa = equilibrium_map(W, m)
    D = rng.uniform(-4.0, 4.0, size=(50, W.shape[0]))
    X = pa.eval_many(D)
    for k in range(D.shape[0]):
        np.testing.assert_allclose(X[k], pa(D[k]), atol=1e-12)


def test_iterative_solver():
    m = np.array([1.0, np.inf])
    d = np.array([0.4, -0.2])
    x = solve_equilibrium_iterative(np.zeros((2, 2)), m, d)
    np.testing.assert_allclose(x, clip01m(d, m), atol=1e-9)
    x = solve_equilibrium_iterative(np.array([[0.5]]), np.array([np.inf]), np.array([1.0]))
    np.testing.assert_allclose(x, [2.0], atol=1e-9)
    with pytest.raises(NotCertified, match="rho"):
        solve_equilibrium_iterative(np.array([[1.2]]), np.array([np.inf]), np.array([1.0]))
    # reducible |W|: the Perron vector is zero on the slower nodes, whose
    # error must still be bounded by the stopping rule
    W = np.diag([0.9, 0.45, 0.0])
    x = solve_equilibrium_iterative(W, np.full(3, np.inf), np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(x, [0.0, 1.0 / 0.55, 0.0], rtol=0, atol=1e-9)


def test_iterative_matches_enumeration():
    rng = np.random.default_rng(31)
    W, m = random_contractive(rng, n_max=4, rho_hi=0.8)
    pa = equilibrium_map(W, m)
    for _ in range(20):
        d = rng.uniform(-4.0, 4.0, size=W.shape[0])
        np.testing.assert_allclose(
            solve_equilibrium_iterative(W, m, d), pa(d), atol=1e-8
        )


def test_enumeration_limit(monkeypatch):
    # the limit bounds stack size, patterns x n^2 with 3 patterns per finite
    # ceiling and 2 per unbounded one: n = 12 all finite (3^12 x 144) and
    # n = 17 all unbounded (2^17 x 289, which peaked at 1 297 MB under a
    # pattern cap) are refused before a piece is built, and n = 13 all
    # unbounded (2^13 x 169) builds
    with monkeypatch.context() as mp:
        mp.setattr(equilibria, "_pattern_pieces", mock.Mock(side_effect=AssertionError))
        for n, m in ((12, 2.0), (17, np.inf)):
            with pytest.raises(ValueError, match="solve_equilibrium_iterative"):
                equilibrium_map(np.zeros((n, n)), np.full(n, m))
    assert len(equilibrium_map(np.zeros((13, 13)), np.full(13, np.inf))) == 2**13


def test_piece_for_pattern_refuses_a_pattern_of_the_wrong_length():
    with pytest.raises(ValueError, match="pattern length 1 != n = 2"):
        piece_for_pattern(np.zeros((2, 2)), np.ones(2), (LINEAR,))


def test_iterative_solver_refuses_a_singular_contraction_test():
    # I - |W| is singular at W = [[1]], so no alpha solves the test
    with pytest.raises(NotCertified, match="no alpha > 0 solves"):
        solve_equilibrium_iterative(np.array([[1.0]]), np.array([np.inf]), np.array([1.0]))


def test_compose_requires_certificate():
    inner = equilibrium_map(np.array([[0.5]]), np.array([2.0]))
    args = (inner, np.array([[0.2]]), np.array([[0.3]]), np.array([[0.4]]),
            np.array([0.5]), np.array([np.inf]))
    with pytest.raises(UniquenessNotCertified):
        compose_maps(*args)

    class Failing:
        passed = False

    with pytest.raises(UniquenessNotCertified):
        compose_maps(*args, certificate=Failing())


def test_compose_scalar_chain():
    W_in = np.array([[0.5]])
    m_in = np.array([2.0])
    inner = equilibrium_map(W_in, m_in)
    W1 = np.array([[0.2]])
    W2 = np.array([[0.3]])
    W3 = np.array([[0.4]])
    cbar = np.array([0.5])
    m_out = np.array([1.5])
    cert = ges_certificate(W1, W2, W3, max_gain_matrix(inner))
    assert cert.passed
    comp = compose_maps(inner, W1, W2, W3, cbar, m_out, certificate=cert)
    for cp in np.linspace(-2.0, 4.0, 41):
        x, _ = joint_fixed_point(W1, W2, W3, cbar, m_out, W_in, m_in, np.array([cp]))
        np.testing.assert_allclose(comp(np.array([cp])), x, atol=1e-10)


def test_compose_with_zero_coupling_reduces_to_base_map():
    inner = equilibrium_map(np.array([[0.3]]), np.array([np.inf]))
    W1 = np.array([[0.4, -0.3], [0.2, 0.1]])
    m_out = np.array([2.0, np.inf])
    zeros21 = np.zeros((2, 1))
    zeros12 = np.zeros((1, 2))
    cert = ges_certificate(W1, zeros21, zeros12, max_gain_matrix(inner))
    comp = compose_maps(inner, W1, zeros21, zeros12, np.array([0.7]), m_out,
                        certificate=cert)
    base = equilibrium_map(W1, m_out)
    rng = np.random.default_rng(2)
    for _ in range(50):
        cp = rng.uniform(-3.0, 3.0, size=2)
        np.testing.assert_allclose(comp(cp), base(cp), atol=1e-10)


def test_compose_shares_the_base_piece_rows():
    # with W2 = 0 every composite piece (lam, sigma) solves the outer
    # equation alone, so it must carry the base piece of sigma followed by
    # the inner region rows
    inner = equilibrium_map(np.array([[0.3, -0.2], [0.1, 0.4]]), np.array([1.5, np.inf]))
    W1 = np.array([[0.4, -0.3, 0.1], [0.2, 0.1, -0.2], [0.0, 0.3, 0.2]])
    m_out = np.array([2.0, np.inf, 1.0])
    W2 = np.zeros((3, 2))
    W3 = np.array([[0.5, -0.2, 0.1], [0.3, 0.4, -0.6]])
    cert = ges_certificate(W1, W2, W3, max_gain_matrix(inner))
    comp = compose_maps(inner, W1, W2, W3, np.array([0.2, -0.4]), m_out,
                        certificate=cert)
    assert len(comp) > len(inner)
    for piece in comp.pieces:
        base = piece_for_pattern(W1, m_out, piece.label[2:])
        rows = base.G.shape[0]
        assert piece.G.shape[0] > rows
        np.testing.assert_allclose(piece.F, base.F, rtol=0, atol=1e-12)
        np.testing.assert_allclose(piece.f, base.f, rtol=0, atol=1e-12)
        np.testing.assert_allclose(piece.G[:rows], base.G, rtol=0, atol=1e-12)
        np.testing.assert_allclose(piece.g[:rows], base.g, rtol=0, atol=1e-12)


def test_compose_random_pairs():
    rng = np.random.default_rng(47)
    built = 0
    while built < 5:
        W_in, m_in = random_contractive(rng, n_max=3, rho_hi=0.6)
        k = W_in.shape[0]
        n = int(rng.integers(1, 4))
        W1 = rng.normal(scale=0.2, size=(n, n))
        W2 = rng.normal(scale=0.3, size=(n, k))
        W3 = rng.normal(scale=0.3, size=(k, n))
        cbar = rng.normal(size=k)
        m_out = np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0.5, 2.0, n))
        inner = equilibrium_map(W_in, m_in)
        cert = ges_certificate(W1, W2, W3, max_gain_matrix(inner))
        if not cert.passed:
            continue
        built += 1
        comp = compose_maps(inner, W1, W2, W3, cbar, m_out, certificate=cert)
        for _ in range(20):
            cp = rng.uniform(-3.0, 3.0, size=n)
            x, _ = joint_fixed_point(W1, W2, W3, cbar, m_out, W_in, m_in, cp)
            np.testing.assert_allclose(comp(cp), x, atol=1e-8)


def test_builders_share_one_read_only_stack():
    # a map's pieces view the builder's read-only stacks instead of copying
    base = _oracle_maps()[0]
    assert len({id(p.G.base) for p in base.pieces}) < len(base)
    for p in base.pieces:
        for a in (p.F, p.f, p.G, p.g):
            assert not a.flags.writeable and not a.base.flags.writeable
    # a composite's stacks hold its kept pieces only, not rejected candidates
    comp = _oracle_maps()[1]
    held = {}
    for p in comp.pieces:
        for a in (p.F, p.f, p.G, p.g):
            held.setdefault(id(a.base), [a.base, 0])[1] += a.size
    assert all(stack.size == size for stack, size in held.values())


def test_a_map_holds_read_only_stacks_and_cannot_be_reassigned():
    for pa in _oracle_maps():
        for name in ("F", "f", "G", "g", "ends"):
            a = getattr(pa, name)
            assert a.base is None and not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1.0
            with pytest.raises(AttributeError):
                setattr(pa, name, a.copy())
        assert pa.ends[-1] == len(pa.g) == len(pa.G)
        assert pa.F.shape == (len(pa), pa.output_dim, pa.domain_dim)


@pytest.mark.parametrize("which", [0, 1])
def test_a_map_rebuilt_from_its_pieces_holds_the_same_stacks(which):
    pa = _oracle_maps()[which]
    rng = np.random.default_rng(101)
    D = _query_points(pa, rng, 200)
    # by the constructor, and by dataclasses.replace with no changes
    for again in (PiecewiseAffineMap(pa.pieces, pa.domain_dim, pa.output_dim),
                  dataclasses.replace(pa)):
        assert type(again) is PiecewiseAffineMap and again is not pa
        assert again.labels == pa.labels
        assert (again.domain_dim, again.output_dim) == (pa.domain_dim, pa.output_dim)
        for name in ("F", "f", "G", "g", "ends"):
            a, b = getattr(pa, name), getattr(again, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(again.eval_many(D), pa.eval_many(D))
        for d in D[:40]:
            np.testing.assert_array_equal(again.eval(d), pa.eval(d))
            assert [p.label for p in again.pieces_at(d)] == [p.label for p in pa.pieces_at(d)]
        assert again.to_jsonable() == pa.to_jsonable()
        assert lipschitz_constant(again) == lipschitz_constant(pa)
        np.testing.assert_array_equal(max_gain_matrix(again), max_gain_matrix(pa))
    with pytest.raises(ValueError, match="init=False"):  # the stacks are not arguments
        dataclasses.replace(pa, F=pa.F)


@pytest.mark.parametrize("chunk", [equilibria._PATTERN_CHUNK, 7])
def test_builders_hand_over_their_stacks_in_label_order(chunk, monkeypatch):
    # product order over increasing regime codes, inner-piece-major for a
    # composite, is label order, so neither builder sorts or goes through
    # the constructor that does
    monkeypatch.setattr(equilibria, "_PATTERN_CHUNK", chunk)
    inner, W1, W2, W3, cbar, m_out = _ragged_composite_args()
    with mock.patch.object(PiecewiseAffineMap, "__init__", side_effect=AssertionError):
        base, comp = _oracle_maps()
        ragged = compose_maps(inner, W1, W2, W3, cbar, m_out,
                              certificate=SimpleNamespace(passed=True))
    for pa in (base, comp, ragged):
        assert len(pa) > 7
        assert list(pa.labels) == sorted(pa.labels)
        assert len(set(pa.labels)) == len(pa)


def test_composite_of_unsorted_pairs_is_sorted_as_the_constructor_sorts():
    # inner labels of two lengths: (0,) + (2,) sorts after (0, 1) + (0,),
    # so inner-piece-major is not label order here
    inner = PiecewiseAffineMap(tuple(
        AffinePiece(np.array([[0.2]]), np.array([0.1]), np.array([[1.0]]), np.array([9.0]), lab)
        for lab in ((0,), (0, 1))), 1, 1)
    W = np.array([[0.1]])
    comp = compose_maps(inner, W, W, W, np.array([0.3]), np.array([2.0]),
                        certificate=SimpleNamespace(passed=True))
    assert comp.labels == ((0, 0), (0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 2))
    again = PiecewiseAffineMap(comp.pieces, 1, 1)
    for name in ("F", "f", "G", "g", "ends"):
        assert getattr(comp, name).tobytes() == getattr(again, name).tobytes()


def test_composite_labels_carry_both_patterns():
    inner = equilibrium_map(np.array([[0.5]]), np.array([2.0]))
    W1 = np.array([[0.2]])
    cert = ges_certificate(W1, np.array([[0.3]]), np.array([[0.4]]),
                           max_gain_matrix(inner))
    comp = compose_maps(inner, W1, np.array([[0.3]]), np.array([[0.4]]),
                        np.array([0.5]), np.array([1.5]), certificate=cert)
    for piece in comp.pieces:
        assert len(piece.label) == 2  # inner pattern plus outer pattern
    assert len({p.label for p in comp.pieces}) == len(comp.pieces)


# -- point location against a brute-force scan ------------------------------


def _scan(pa, d, tol=1e-9):
    """Indices of the pieces whose region holds d, in label order."""
    return [i for i, p in enumerate(pa.pieces) if np.all(p.G @ d + p.g >= -tol)]


def _oracle_maps():
    """A base map (n = 5, mixed ceilings) and a composite from compose_maps."""
    rng = np.random.default_rng(61)
    W = rng.normal(size=(5, 5))
    W *= 0.7 / np.max(np.abs(np.linalg.eigvals(np.abs(W))))
    base = equilibrium_map(W, np.array([1.0, np.inf, 2.0, np.inf, 1.5]))
    inner = equilibrium_map(np.array([[0.2, -0.3], [0.4, 0.1]]),
                            np.array([1.5, np.inf]))
    W1 = np.array([[0.1, -0.2], [0.3, 0.2]])
    W2 = np.array([[0.3, 0.0], [-0.2, 0.2]])
    W3 = np.array([[0.2, 0.1], [0.0, -0.3]])
    cert = ges_certificate(W1, W2, W3, max_gain_matrix(inner))
    assert cert.passed
    comp = compose_maps(inner, W1, W2, W3, np.array([0.3, -0.2]),
                        np.array([2.0, np.inf]), certificate=cert)
    return [base, comp]


def _query_points(pa, rng, k):
    """k points mixing random inputs with points on faces shared by pieces."""
    D = rng.uniform(-4.0, 4.0, size=(k, pa.domain_dim))
    ties = []
    for d in D[: k // 4]:
        p = pa.pieces[_scan(pa, d)[0]]
        for G_j, g_j in zip(p.G, p.g):
            if not G_j.any():
                continue  # a composite's inner row that the outer state misses
            face = d - (G_j @ d + g_j) / (G_j @ G_j) * G_j
            if len(_scan(pa, face)) >= 2:
                ties.append(face)
    assert len(ties) >= k // 4
    pool = np.vstack([D, ties])
    return pool[rng.permutation(len(pool))[:k]]


def _tagged(pa):
    """pa's regions with constant values: piece i evaluates to i everywhere."""
    pieces = [AffinePiece(F=np.zeros_like(p.F), f=np.full(pa.output_dim, float(i)),
                          G=p.G, g=p.g, label=p.label)
              for i, p in enumerate(pa.pieces)]
    return PiecewiseAffineMap(tuple(pieces), pa.domain_dim, pa.output_dim)


# the pinned tile, and one so small that nearly every piece is a tile edge
_TILES = [_QUERY_TILE, 64]


def _batch_sizes(tile):
    """1, the point chunk's edge - 1, edge and edge + 1, and several chunks."""
    chunk = math.isqrt(tile)
    return [1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7]


@pytest.mark.parametrize("which", [0, 1])
def test_point_location_matches_scan(which, monkeypatch):
    pa = _oracle_maps()[which]
    tags = _tagged(pa)
    rng = np.random.default_rng(67 + which)
    D = _query_points(pa, rng, _batch_sizes(_QUERY_TILE)[-1])
    first = np.array([_scan(pa, d)[0] for d in D])
    for tile in _TILES:
        monkeypatch.setattr(equilibria, "_QUERY_TILE", tile)
        for d, i in zip(D[: _batch_sizes(tile)[-1]], first):
            assert tags.eval(d)[0] == i
            p = pa.pieces[i]
            np.testing.assert_array_equal(pa.eval(d), p.F @ d + p.f)
            covering = [pa.pieces[j].label for j in _scan(pa, d)]
            assert [q.label for q in pa.pieces_at(d)] == covering
        for k in _batch_sizes(tile):
            np.testing.assert_array_equal(tags.eval_many(D[:k])[:, 0], first[:k])
            # the grouped per-piece product over the whole call, as in one block
            want = np.empty((k, pa.output_dim))
            for i in np.unique(first[:k]):
                sel = first[:k] == i
                want[sel] = D[:k][sel] @ pa.pieces[i].F.T + pa.pieces[i].f
            np.testing.assert_array_equal(pa.eval_many(D[:k]), want)


@pytest.mark.parametrize("tile", _TILES)
def test_batch_does_not_change_a_points_piece(tile, monkeypatch):
    tags = _tagged(_oracle_maps()[0])
    rng = np.random.default_rng(73)
    chunk = math.isqrt(tile)
    D = _query_points(tags, rng, 3 * chunk + 7)
    monkeypatch.setattr(equilibria, "_QUERY_TILE", tile)
    whole = tags.eval_many(D)[:, 0]
    np.testing.assert_array_equal(whole, [tags.eval(d)[0] for d in D])
    for size in (1, 2, chunk - 1, chunk + 1, len(D) // 2, len(D)):
        S = rng.choice(len(D), size, replace=False)
        np.testing.assert_array_equal(tags.eval_many(D[S])[:, 0], whole[S])


@pytest.mark.parametrize("tile", [_QUERY_TILE, 256])
def test_covering_pieces_in_the_last_tile(tile, monkeypatch):
    monkeypatch.setattr(equilibria, "_QUERY_TILE", tile)
    rows = tile // math.isqrt(tile)  # a tile's rows while a full chunk is live
    real = equilibrium_map(np.array([[0.3, -0.2], [0.1, 0.4]]), np.array([1.5, np.inf]))
    assert sum(p.G.shape[0] for p in real.pieces) <= rows
    # pieces that cover nothing, labelled to come first, one full tile each
    dead = [AffinePiece(np.eye(2), np.ones(2), np.zeros((rows, 2)), np.full(rows, -1.0),
                        (-1, j)) for j in range(3)]
    pa = PiecewiseAffineMap(tuple(dead) + real.pieces, 2, 2)
    rng = np.random.default_rng(79)
    for k in _batch_sizes(tile):
        D = rng.uniform(-4.0, 4.0, size=(k, 2))
        np.testing.assert_array_equal(pa.eval_many(D), real.eval_many(D))
    for d in D[:20]:
        np.testing.assert_array_equal(pa.eval(d), real.eval(d))
        assert [p.label for p in pa.pieces_at(d)] == [p.label for p in real.pieces_at(d)]


def test_eval_many_names_the_uncovered_row(monkeypatch):
    pa = _oracle_maps()[0]
    all_linear = (LINEAR,) * 5
    holed = PiecewiseAffineMap(
        tuple(p for p in pa.pieces if p.label != all_linear), 5, 5)
    # an input whose equilibrium is strictly inside the all-linear regime
    lin = pa.pieces[[p.label for p in pa.pieces].index(all_linear)]
    hole = np.linalg.solve(lin.F, np.array([0.5, 0.8, 1.0, 0.6, 0.7]))
    assert _scan(holed, hole) == []
    rng = np.random.default_rng(71)
    for tile in _TILES:
        monkeypatch.setattr(equilibria, "_QUERY_TILE", tile)
        for k in _batch_sizes(tile):
            D = rng.uniform(-4.0, 4.0, size=(2 * k, 5))
            D = D[np.any(D @ lin.G.T + lin.g < -1e-6, axis=1)][: k - 1]  # off the hole
            bad = int(rng.integers(0, k))
            D = np.insert(D, bad, hole, axis=0)
            assert D.shape == (k, 5)
            with pytest.raises(NoCoveringPiece, match=rf"no piece covers row {bad}: d="):
                holed.eval_many(D)
        with pytest.raises(NoCoveringPiece, match="no piece covers d="):
            holed.eval(hole)


def test_point_location_input_checks():
    pa = _oracle_maps()[0]
    for d in (np.zeros(4), np.zeros((1, 5)), 0.0):
        with pytest.raises(ValueError, match="domain_dim = 5"):
            pa.eval(d)
        with pytest.raises(ValueError, match="domain_dim = 5"):
            pa.pieces_at(d)
    for D in (np.zeros((3, 4)), np.zeros(6), np.zeros((2, 3, 5))):
        with pytest.raises(ValueError, match="domain_dim = 5"):
            pa.eval_many(D)
    assert pa.eval_many(np.zeros((0, 5))).shape == (0, 5)
    # NaN holds no row, so it is uncovered; the lowest such row is named
    D = np.random.default_rng(89).uniform(-4.0, 4.0, size=(600, 5))
    D[[400, 300], 2] = np.nan
    with pytest.raises(NoCoveringPiece, match="no piece covers row 300: d="):
        pa.eval_many(D)
    with pytest.raises(NoCoveringPiece, match="no piece covers d="):
        pa.eval(D[300])
    assert pa.pieces_at(D[300]) == []
    empty = PiecewiseAffineMap((), 5, 5)
    with pytest.raises(NoCoveringPiece, match="no piece covers d="):
        empty.eval(np.zeros(5))
    with pytest.raises(NoCoveringPiece, match="no piece covers row 0: d="):
        empty.eval_many(np.zeros((2, 5)))
    assert empty.pieces_at(np.zeros(5)) == []
    assert empty.eval_many(np.zeros((0, 5))).shape == (0, 5)


def test_a_piece_without_region_rows_covers_every_point():
    # G of shape (0, n): a piece valid everywhere, alone, first and last
    everywhere = AffinePiece(np.array([[2.0]]), np.array([1.0]), np.zeros((0, 1)),
                             np.zeros(0), (1,))
    D = np.array([[-1.0], [0.0], [3.0]])
    alone = PiecewiseAffineMap((everywhere,), 1, 1)
    # it is held, and read back, as the one row 0·d + 0 >= 0
    assert alone.G.tolist() == [[0.0]] and alone.g.tolist() == [0.0]
    assert alone.pieces[0].G.tolist() == [[0.0]]
    np.testing.assert_array_equal(alone.eval_many(D), 2.0 * D + 1.0)
    for d in D:
        np.testing.assert_array_equal(alone.eval(d), 2.0 * d + 1.0)
        assert [p.label for p in alone.pieces_at(d)] == [(1,)]
    for label in ((0,), (2,)):  # the piece d >= 0, labelled before and after it
        other = AffinePiece(np.zeros((1, 1)), np.array([5.0]), np.eye(1), np.zeros(1), label)
        pa = PiecewiseAffineMap((everywhere, other), 1, 1)
        first = np.where(D >= 0.0, 5.0, 2.0 * D + 1.0) if label < (1,) else 2.0 * D + 1.0
        np.testing.assert_array_equal(pa.eval_many(D), first)
        for d, x in zip(D, first):
            np.testing.assert_array_equal(pa.eval(d), x)
            covering = sorted([(1,)] + ([label] if d[0] >= 0.0 else []))
            assert [p.label for p in pa.pieces_at(d)] == covering


def test_eval_many_memory_does_not_grow_with_the_batch():
    rng = np.random.default_rng(97)
    W = rng.normal(size=(8, 8))
    W *= 0.5 / np.max(np.abs(np.linalg.eigvals(np.abs(W))))
    m = np.full(8, np.inf)
    m[:5] = rng.uniform(0.5, 3.0, size=5)
    pa = equilibrium_map(W, m)
    assert len(pa) == 1944
    pa.eval_many(np.zeros((1, 8)))  # the rows are stacked once, on the first query

    def peak(k):
        """Peak traced bytes of eval_many over k points, beyond its result."""
        D = rng.uniform(-8.0, 8.0, size=(k, 8))
        tracemalloc.start()
        try:
            X = pa.eval_many(D)
            return tracemalloc.get_traced_memory()[1] - X.nbytes
        finally:
            tracemalloc.stop()

    small, large = peak(5_000), peak(50_000)
    # the scan's tiles are bounded (a (pieces x points) membership matrix
    # would take 97 MB here); only the 8-byte index vector grows with k
    assert large < 4e6
    assert large - small < 45_000 * 16


def test_a_queried_map_holds_little_beyond_its_arrays():
    rng = np.random.default_rng(97)
    W = rng.normal(size=(8, 8))
    W *= 0.5 / np.max(np.abs(np.linalg.eigvals(np.abs(W))))
    m = np.full(8, np.inf)
    m[:4] = rng.uniform(0.5, 3.0, size=4)
    D = rng.uniform(-8.0, 8.0, size=(256, 8))
    tracemalloc.start()
    try:
        pa = equilibrium_map(W, m)
        pa.eval_many(D)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(pa) == 1296
    arrays = sum(a.nbytes for p in pa.pieces for a in (p.F, p.f, p.G, p.g))
    # 1.10 with one copy of each array; 2.18 when every piece was an object
    # of its own and the first query stacked the region rows again
    assert held <= 1.5 * arrays


# -- certified location against the scan -------------------------------------


def _locator_maps():
    """Base maps of contractive networks with a locator: the n = 5 oracle map
    (rho 0.7) and two with rho(|W|) = 0.97 and 0.9, mixed ceilings."""
    maps = [_oracle_maps()[0]]
    for seed, n, rho, m in ((83, 4, 0.97, [2.0, np.inf, 1.0, 0.5]),
                            (89, 5, 0.9, [np.inf, 3.0, np.inf, 1.0, np.inf])):
        W = np.random.default_rng(seed).normal(size=(n, n))
        W *= rho / np.max(np.abs(np.linalg.eigvals(np.abs(W))))
        maps.append(equilibrium_map(W, np.array(m)))
    return maps


def _band_points(pa, rng, k):
    """k points: random inputs, points on a face of their first piece, and
    points off such faces by +-{0.3, 0.9, 1.1, 3, 30, 300, 3e4} _REGION_TOL
    along the face's normal, so that the row reads about that much."""
    offsets = np.array([0.3, 0.9, 1.1, 3.0, 30.0, 300.0, 3e4])
    offsets = np.concatenate([[0.0], offsets, -offsets]) * 1e-9
    D = rng.uniform(-4.0, 4.0, size=(k, pa.domain_dim))
    band = []
    for d in D[: k // 8]:
        p = pa.pieces[_scan(pa, d)[0]]
        r = rng.integers(len(p.g))
        G_j, g_j = p.G[r], p.g[r]
        face = d - (G_j @ d + g_j) / (G_j @ G_j) * G_j
        band += [face + t / (G_j @ G_j) * G_j for t in offsets]
    pool = np.vstack([D, band])
    return pool[rng.permutation(len(pool))[:k]]


@pytest.mark.parametrize("which", [0, 1, 2])
def test_certified_location_matches_the_scan(which):
    pa = _locator_maps()[which]
    assert pa._locator is not None
    chunk = math.isqrt(_QUERY_TILE)
    sizes = [1, 2, chunk - 1, chunk, chunk + 1, 3 * chunk + 7]
    D = _band_points(pa, np.random.default_rng(103 + which), sizes[-1])
    first = np.array([_scan(pa, d)[0] for d in D])
    certified = pa._locator(D[:chunk]) >= 0
    assert 0 < certified.sum() < chunk  # both paths are taken
    for d, i in zip(D, first):
        assert pa._locate(d) == i
        np.testing.assert_array_equal(pa.eval(d), pa.F[i] @ d + pa.f[i])
    for k in sizes:
        assert pa._first(D[:k]).tolist() == first[:k].tolist()
        want = np.empty((k, pa.output_dim))
        for i in np.unique(first[:k]):
            sel = first[:k] == i
            want[sel] = D[:k][sel] @ pa.F[i].T + pa.f[i]
        np.testing.assert_array_equal(pa.eval_many(D[:k]), want)


def _memory_guard_map():
    """The n = 8, 1 944-piece map of the memory guard."""
    rng = np.random.default_rng(97)
    W = rng.normal(size=(8, 8))
    W *= 0.5 / np.max(np.abs(np.linalg.eigvals(np.abs(W))))
    m = np.full(8, np.inf)
    m[:5] = rng.uniform(0.5, 3.0, size=5)
    return equilibrium_map(W, m)


def _scan_spy(monkeypatch):
    """A list that gets every point set handed to PiecewiseAffineMap._scan."""
    seen, scan = [], PiecewiseAffineMap._scan

    def spy(self, D):
        seen.append(D.copy())
        return scan(self, D)

    monkeypatch.setattr(PiecewiseAffineMap, "_scan", spy)
    return seen


def test_the_scan_sees_only_the_uncertified_points(monkeypatch):
    pa = _memory_guard_map()
    assert len(pa) == 1944
    D = _band_points(pa, np.random.default_rng(107), 256)
    chunk = math.isqrt(_QUERY_TILE)
    certified = np.concatenate([pa._locator(D[lo : lo + chunk]) >= 0
                                for lo in range(0, len(D), chunk)])
    assert 0 < (~certified).sum() < len(D) // 2
    seen = _scan_spy(monkeypatch)
    pa.eval_many(D)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], D[~certified])
    # a lone uncertified point of a batch is scanned as two columns
    lone = np.vstack([D[certified][:20], D[~certified][:1]])
    assert pa._first(lone).tolist() == [_scan(pa, d)[0] for d in lone]
    np.testing.assert_array_equal(seen[1], np.repeat(lone[-1:], 2, axis=0))
    # an interior point is never scanned
    seen.clear()
    interior = D[np.flatnonzero(certified)[0]]
    k = pa._locate(interior)
    np.testing.assert_array_equal(pa.eval(interior), pa.F[k] @ interior + pa.f[k])
    assert seen == [] and k == _scan(pa, interior)[0]


def test_an_unsettled_iteration_certifies_nothing(monkeypatch):
    pa = _memory_guard_map()
    D = np.random.default_rng(127).uniform(-4.0, 4.0, size=(50, 8))
    assert (pa._locator(D) >= 0).all()
    # each round names another piece for every point, so none settles
    calls = itertools.count()
    monkeypatch.setattr(equilibria._Locator, "_rank",
                        lambda self, Z: np.full(len(Z), next(calls) % len(pa)))
    assert (pa._locator(D) == -1).all()


def _singular_map():
    """A map that skips the patterns making node 0 Linear under W_00 = 1."""
    with pytest.warns(UserWarning, match="skipped 9 singular"):
        return equilibrium_map(np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.0], [0.0, 0.1, 0.2]]),
                               np.array([np.inf, 1.0, 1.0]))


def test_maps_without_a_locator_take_the_scan_alone(monkeypatch):
    monkeypatch.setattr(equilibria, "_QUERY_TILE", 16)  # every map below has > 4 rows
    base, comp = _oracle_maps()
    rebuilt = PiecewiseAffineMap(base.pieces, base.domain_dim, base.output_dim)
    mutual = equilibrium_map(np.array([[0.0, 2.0], [2.0, 0.0]]), np.ones(2))
    singular = _singular_map()
    negative = equilibrium_map(np.array([[0.2, 0.1], [0.0, 0.3]]), np.array([-1.0, 1.0]))
    assert base._locator is not None and "_net" not in vars(singular)
    seen = _scan_spy(monkeypatch)
    rng = np.random.default_rng(109)
    for pa in (comp, rebuilt, mutual, singular, negative):
        D = rng.uniform(-4.0, 4.0, size=(50, pa.domain_dim))
        if pa is singular:
            D[:, 0] = -np.abs(D[:, 0])  # node 0 can only be Zero or Saturated
        seen.clear()
        pa.eval_many(D)
        np.testing.assert_array_equal(np.vstack(seen), D)
        assert pa._locator is None
    # three equilibria at d = (-0.5, -0.5): the scan's first, not a guess
    np.testing.assert_array_equal(mutual.eval(np.array([-0.5, -0.5])), [0.0, 0.0])


def test_maps_of_one_tile_take_the_scan_alone(monkeypatch):
    pa = equilibrium_map(np.array([[0.3, -0.2], [0.1, 0.4]]), np.array([1.5, np.inf]))
    assert pa._locator is None  # 6 pieces, 10 rows
    rows = len(pa.G)
    for tile, built in ((rows * rows, False), ((rows - 1) ** 2, True)):
        monkeypatch.setattr(equilibria, "_QUERY_TILE", tile)
        again = equilibrium_map(np.array([[0.3, -0.2], [0.1, 0.4]]), np.array([1.5, np.inf]))
        assert (again._locator is not None) == built


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_points_raise_as_the_scan_does():
    # a non-finite point lies in no region: before, the scan's 0 * inf
    # warned first, and the one-node map below read NaN at -inf and inf at inf
    pa = _memory_guard_map()
    D = np.random.default_rng(113).uniform(-4.0, 4.0, size=(600, 8))
    D[[400, 300], 2] = np.nan
    D[[500, 350], 1] = [np.inf, -np.inf]
    with pytest.raises(NoCoveringPiece, match="no piece covers row 300: d="):
        pa.eval_many(D)
    with pytest.raises(NoCoveringPiece, match=r"no piece covers row 49: d=array\(\[.*-inf"):
        pa.eval_many(D[301:])  # row 350
    for d in D[[300, 350, 500]]:
        with pytest.raises(NoCoveringPiece, match="no piece covers d="):
            pa.eval(d)
        with pytest.raises(NoCoveringPiece, match="no piece covers d="):
            pa._locate(d)
        assert pa.pieces_at(d) == []
    line = equilibrium_map(np.array([[0.5]]), np.array([np.inf]))
    for x in (-np.inf, np.inf):
        with pytest.raises(NoCoveringPiece, match="no piece covers d="):
            line.eval([x])
        with pytest.raises(NoCoveringPiece, match="no piece covers row 1: d="):
            line.eval_many([[1.0], [x]])
        assert line.pieces_at([x]) == []


# -- stacked emptiness decision against one LP per region ---------------------


def _one_lp(G, g):
    """The per-region rule with its own max-margin LP: the reference."""
    zero_rows = np.all(np.abs(G) < 1e-14, axis=1)
    if np.any(g[zero_rows] < -1e-12):
        return False
    G, g = G[~zero_rows], g[~zero_rows]
    if G.shape[0] == 0:
        return True
    n = G.shape[1]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([-G, np.ones((len(g), 1))]), b_ub=g,
                  bounds=[(None, None)] * n + [(None, 1.0)], method="highs")
    return res.status == 0 and res.x[-1] >= -1e-9


_LP_REGIONS = 80


def _hand_regions():
    """(regions, truth): 128 regions of every kind in dims 1-3, of which
    _LP_REGIONS = 80 are left for the LP after the zero-row check."""
    rng = np.random.default_rng(83)
    regions, truth = [], []

    def add(G, g, nonempty):
        regions.append((np.atleast_2d(np.asarray(G, float)), np.asarray(g, float)))
        truth.append(nonempty)

    for k in range(16):
        n = 1 + k % 3
        R = rng.normal(size=(2 * n + 1, n))
        center = rng.normal(size=n)
        r = R[0]
        zero = np.zeros((1, n))
        # full-dimensional: every row holds at center with slack
        add(R, -R @ center + rng.uniform(0.1, 1.0, len(R)), True)
        # contradictory rows: r.d >= 1 and r.d <= -1
        add(np.vstack([R, r, -r]), np.concatenate([np.full(len(R), 5.0), [-1.0, -1.0]]),
            False)
        # hyperplane r.d = -b: maximal margin exactly 0
        b = rng.normal()
        add([r, -r], [b, -b], True)
        # a zero row with a negative offset, in front of a nonempty region
        add(np.vstack([zero, R]), np.concatenate([[-1e-6], np.full(len(R), 1.0)]), False)
        # zero rows with offsets >= 0 (or above -1e-12) are dropped
        add(np.vstack([zero, R, zero]), np.concatenate([[0.0], np.full(len(R), 1.0), [-1e-13]]),
            True)
        add(np.vstack([zero, r, -r]), [0.5, -1.0, -1.0], False)
        # only zero rows: decided without an LP
        add(np.zeros((2, n)), [0.0, 2.0], True)
        add(np.zeros((2, n)), [0.3, -1e-9], False)
    return regions, np.array(truth)


def _row_stack(regions):
    """The regions as _regions_nonempty's arguments: one row stack (G, g),
    G padded with zero columns to the widest region, the owner of each row
    and the region count."""
    width = max(G.shape[1] for G, _ in regions)
    G = np.vstack([np.pad(G, ((0, 0), (0, width - G.shape[1]))) for G, _ in regions])
    g = np.concatenate([g for _, g in regions])
    owner = np.repeat(np.arange(len(regions)), [len(g) for _, g in regions])
    return G, g, owner, len(regions)


@pytest.mark.parametrize("chunk", [_LP_CHUNK, 1, 3])
def test_stacked_emptiness_matches_one_lp_per_region(chunk, monkeypatch):
    regions, truth = _hand_regions()
    reference = np.array([_one_lp(G, g) for G, g in regions])
    np.testing.assert_array_equal(reference, truth)
    monkeypatch.setattr(equilibria, "_LP_CHUNK", chunk)
    with captured_lps() as lps:
        np.testing.assert_array_equal(_regions_nonempty(*_row_stack(regions)), truth)
    calls = [np.count_nonzero(c) for c, *_ in lps]  # one -1 per block's margin variable
    assert sum(calls) == _LP_REGIONS and len(calls) == -(-_LP_REGIONS // chunk)
    # the entry solves each stacked LP as scipy.optimize.linprog does, bit for bit
    assert_solved_as_linprog_solves(lps)


def _composite():
    """A composite of 3 + 3 nodes.  Its candidates would fill four stacked LPs;
    after the box test two are left (see _box_empty)."""
    inner = equilibrium_map(np.array([[0.2, -0.3, 0.1], [0.4, 0.1, 0.0],
                                      [-0.1, 0.2, 0.3]]), np.array([1.5, np.inf, 1.0]))
    W1 = np.array([[0.1, -0.2, 0.1], [0.3, 0.2, 0.0], [0.0, -0.1, 0.2]])
    W2 = np.array([[0.3, 0.0, 0.1], [-0.2, 0.2, 0.0], [0.1, 0.0, -0.2]])
    W3 = np.array([[0.2, 0.1, 0.0], [0.0, -0.3, 0.1], [0.1, 0.0, 0.2]])
    cert = ges_certificate(W1, W2, W3, max_gain_matrix(inner))
    assert cert.passed
    return compose_maps(inner, W1, W2, W3, np.array([0.3, -0.2, 0.5]),
                        np.array([2.0, np.inf, 1.0]), certificate=cert)


def _piece_bytes(pa):
    return [(p.label,) + tuple(a.tobytes() for a in (p.F, p.f, p.G, p.g))
            for p in pa.pieces]


# SHA-256 of repr(_piece_bytes(_composite())), recorded when every pattern's
# piece was built on its own (NumPy 2.4 with OpenBLAS, x86-64): compose bits
# may not change, not even within a tolerance
_COMPOSITE_SHA256 = "44e75a808e9336132ee84ea6cc9f3f8aa529bba6e1e6a1f71d1489c71d5773be"


def test_composite_bytes_are_pinned():
    digest = hashlib.sha256(repr(_piece_bytes(_composite())).encode()).hexdigest()
    assert digest == _COMPOSITE_SHA256


def test_stacked_lp_failure_bisects_to_single_blocks(monkeypatch):
    regions, truth = _hand_regions()
    want = _piece_bytes(_composite())
    sizes = []
    entry = equilibria.linprog

    def fails_when_stacked(c, **kwargs):
        blocks = np.count_nonzero(c)  # one -1 per block's margin variable
        sizes.append(blocks)
        if blocks > 1:
            return SimpleNamespace(status=4, x=None)
        return entry(c, **kwargs)

    monkeypatch.setattr(equilibria, "linprog", fails_when_stacked)
    np.testing.assert_array_equal(_regions_nonempty(*_row_stack(regions)), truth)
    assert max(sizes) == _LP_CHUNK and 1 in sizes
    assert _piece_bytes(_composite()) == want


_LP_C, _LP_A, _LP_B = np.array([0.0, -1.0]), np.array([[1.0, 1.0], [-1.0, 1.0]]), np.ones(2)
_LP_BOUNDS = np.array([[-np.inf, np.inf], [-np.inf, 1.0]])


@pytest.mark.parametrize("where, bad", [
    *itertools.product(["c", "A_ub", "sparse A_ub", "b_ub"], [np.nan, np.inf, -np.inf]),
    ("bounds", np.nan),
])
def test_lp_entry_refuses_non_finite_data(where, bad):
    # milp alone would solve a NaN entry of A_ub or +inf in b_ub (status 0)
    # and call NaN in b_ub infeasible, which _max_margin_lp reads as empty
    from scipy import sparse

    lp = {"c": _LP_C.copy(), "A_ub": _LP_A.copy(), "b_ub": _LP_B.copy(),
          "bounds": _LP_BOUNDS.copy()}
    key = where.split()[-1]
    lp[key].flat[-1] = bad
    if where == "sparse A_ub":
        lp[key] = sparse.coo_matrix(lp[key])
    assert equilibria.linprog(_LP_C, _LP_A, _LP_B, _LP_BOUNDS).status == 0
    with pytest.raises(ValueError, match="finite"):
        equilibria.linprog(**lp)
    if key != "bounds":  # scipy.optimize.linprog reads a NaN bound as no bound
        with pytest.raises(ValueError):
            linprog(**lp, method="highs")


def test_single_block_failure_counts_as_empty(monkeypatch):
    regions, truth = _hand_regions()
    monkeypatch.setattr(equilibria, "linprog",
                        lambda c, **kwargs: SimpleNamespace(status=4, x=None))
    # only the regions left without rows after the zero-row check survive
    no_rows = np.array([np.all(np.abs(G) < 1e-14) for G, _ in regions])
    np.testing.assert_array_equal(_regions_nonempty(*_row_stack(regions)), truth & no_rows)


# -- the box test and the witness that settle composite candidates before any LP


def _decides_nothing(Gi, b, sigmas, m):
    return np.zeros(len(sigmas), dtype=bool)


def _witnesses_nothing(G, g, keep, D):
    return np.zeros(len(G), dtype=bool)


_BOX_EMPTY, _WITNESSED, _LINPROG = equilibria._box_empty, equilibria._witnessed, equilibria.linprog


def _settle(monkeypatch, box=True, witness=True):
    """Switch compose_maps' box test and witness on or off."""
    monkeypatch.setattr(equilibria, "_box_empty", _BOX_EMPTY if box else _decides_nothing)
    monkeypatch.setattr(equilibria, "_witnessed", _WITNESSED if witness else _witnesses_nothing)


def _blocks_and_bytes(monkeypatch, build, box, witness):
    """(LP blocks, LP calls, piece bytes) of build() with the box test and
    the witness switched as given."""
    _settle(monkeypatch, box, witness)
    blocks = []

    def counted(c, **kwargs):
        blocks.append(np.count_nonzero(c))  # one -1 per block's margin variable
        return _LINPROG(c, **kwargs)

    monkeypatch.setattr(equilibria, "linprog", counted)
    pieces = _piece_bytes(build())
    return sum(blocks), len(blocks), pieces


def test_box_test_keeps_the_composite_bytes_and_saves_lp_blocks(monkeypatch):
    runs = {(box, witness): _blocks_and_bytes(monkeypatch, _composite, box, witness)
            for box in (True, False) for witness in (True, False)}
    for _, _, pieces in runs.values():
        assert pieces == runs[True, True][2]
    assert hashlib.sha256(repr(runs[True, True][2]).encode()).hexdigest() == _COMPOSITE_SHA256
    # without the witness
    assert runs[False, False][:2] == (222, 4)
    assert runs[True, False][0] <= 92
    # with it: 46 blocks in one LP after the box test, 176 in three without
    assert runs[True, True][:2] == (46, 1)
    assert runs[False, True][:2] == (176, 3)


def _one_node_composite(a, c, m_out):
    """x = [0.5 [a x + c]_+ + c']_0^m_out.  The inner piece (ZERO,) has the
    row -(a x + c) >= 0, and (LINEAR,) the row a x + c >= 0.  Its
    candidates are (ZERO,) x (Zero, Linear, Saturated), then (LINEAR,) x
    the same, indexed 0 to 5."""
    inner = equilibrium_map(np.zeros((1, 1)), np.array([np.inf]))
    W1, W2, W3 = np.zeros((1, 1)), np.array([[0.5]]), np.array([[a]])
    cert = ges_certificate(W1, W2, W3, max_gain_matrix(inner))
    return compose_maps(inner, W1, W2, W3, np.array([c]), np.array([m_out]), certificate=cert)


def _lp_candidates(monkeypatch):
    """A list that gets, for each _regions_nonempty call from now on, the
    candidates that reach the LP stage and the ones it keeps."""
    calls = []
    entry = equilibria._regions_nonempty

    def recorded(G, g, owner, count):
        keep = entry(G, g, owner, count)
        calls.append((np.unique(owner).tolist(), np.flatnonzero(keep).tolist()))
        return keep

    monkeypatch.setattr(equilibria, "_regions_nonempty", recorded)
    return calls


def test_box_maximum_of_exactly_zero_reaches_the_lp_and_is_kept(monkeypatch):
    # inner ZERO needs x <= 0 and outer LINEAR x in [0, 1]: the region is the
    # point c' = 0, whose maximal margin is exactly 0
    assert not _box_empty(np.array([[-1.0]]), np.array([0.0]), np.array([[LINEAR]]),
                          np.array([1.0])).any()
    build = lambda: _one_node_composite(1.0, 0.0, 1.0)  # noqa: E731
    candidates = _lp_candidates(monkeypatch)
    runs = {(box, witness): _blocks_and_bytes(monkeypatch, build, box, witness)
            for box in (True, False) for witness in (True, False)}
    assert (ZERO, LINEAR) in [label for label, *_ in runs[True, True][2]]
    for _, _, pieces in runs.values():
        assert pieces == runs[True, True][2]
    # in one dimension an outer ZERO or SATURATED pins x, so inner rows on
    # those candidates have no coefficients and the zero-row rule settles
    # them in any case: only (ZERO, SATURATED) is left out of the LP
    assert runs[True, False][0] == runs[False, False][0] == 5
    # the witness needs a positive margin, so the point region (ZERO,
    # LINEAR), candidate 1, still reaches the LP, which keeps it; so do the
    # candidates whose inner row is 0 at their pinned x
    assert runs[True, True][0] == runs[False, True][0] == 3
    reached, kept = candidates[0]
    assert reached == [0, 1, 3] and 1 in kept


def test_box_maximum_below_zero_rejects_without_an_lp_block(monkeypatch):
    # inner ZERO needs x <= -1e-3, but every outer pattern has x >= 0
    build = lambda: _one_node_composite(1.0, 1e-3, 1.0)  # noqa: E731
    runs = {(box, witness): _blocks_and_bytes(monkeypatch, build, box, witness)
            for box in (True, False) for witness in (True, False)}
    assert [label[0] for label, *_ in runs[True, True][2]] == [LINEAR] * 3
    for _, _, pieces in runs.values():
        assert pieces == runs[True, True][2]
    assert runs[True, False][0] == 3  # only the inner LINEAR candidates
    assert runs[False, False][0] == 4  # (ZERO, LINEAR) went to the LP to be rejected there
    # the witness settles the inner LINEAR candidates: no LP at all
    assert runs[True, True][:2] == (0, 0)
    assert runs[False, True][0] == 1  # (ZERO, LINEAR) alone, without the box test


def test_positive_coefficient_on_an_unbounded_linear_node_never_rejects(monkeypatch):
    # inner ZERO needs x >= 5: outer ZERO is settled by its box, but outer
    # LINEAR under m = inf is kept, by the LP without the witness
    build = lambda: _one_node_composite(-1.0, 5.0, np.inf)  # noqa: E731
    runs = {witness: _blocks_and_bytes(monkeypatch, build, True, witness)
            for witness in (True, False)}
    labels = [label for label, *_ in runs[True][2]]
    assert (ZERO, LINEAR) in labels and (ZERO, ZERO) not in labels
    assert runs[True][2] == runs[False][2]
    assert runs[False][0] == 3
    # the witness finds x = 10^(5u - 2) >= 5 on the unbounded node
    assert runs[True][:2] == (0, 0)
    sigmas = np.array([[LINEAR, LINEAR], [LINEAR, ZERO], [ZERO, SATURATED]])
    m = np.array([np.inf, 2.0])
    # a positive coefficient on the unbounded node: no finite box maximum
    # while that node is Linear; Zero pins it to 0
    np.testing.assert_array_equal(
        _box_empty(np.array([[1.0, -1.0]]), np.array([-1e6]), sigmas, m), [False, False, True])
    # a zero coefficient on it counts 0 * inf as 0: the maximum is -1 - 0 or -1 - 2
    np.testing.assert_array_equal(
        _box_empty(np.array([[0.0, -1.0]]), np.array([-1.0]), sigmas, m), [True, True, True])


def _witness_composites():
    """Seeded certified composites, inner n <= 3 and outer n <= 4 with mixed
    ceilings (unbounded Linear nodes included), then the one-node
    composite whose (ZERO, LINEAR) region is the single point c' = 0."""
    rng = np.random.default_rng(131)
    out = []
    while len(out) < 12:
        W_in, m_in = random_contractive(rng, n_max=3)
        W1, m_out = random_contractive(rng, n_max=4, rho_hi=0.6)
        W2 = rng.uniform(-0.5, 0.5, size=(len(m_out), len(m_in)))
        W3 = rng.uniform(-0.5, 0.5, size=(len(m_in), len(m_out)))
        inner = equilibrium_map(W_in, m_in)
        cert = ges_certificate(W1, W2, W3, max_gain_matrix(inner))
        if cert.passed:
            out.append((W_in, m_in, W1, W2, W3, rng.uniform(-1.0, 2.0, size=len(m_in)), m_out))
    return out + [(np.zeros((1, 1)), np.array([np.inf]), np.zeros((1, 1)), np.array([[0.5]]),
                   np.array([[1.0]]), np.array([0.0]), np.array([1.0]))]


def test_witness_keeps_what_the_lp_keeps_on_points_of_the_region(monkeypatch):
    seen = []

    def recorded(G, g, keep, D):
        found = _WITNESSED(G, g, keep, D)
        seen.append((G[found], g[found], keep[found], D[found]))
        return found

    witnessed = unbounded = 0
    for W_in, m_in, W1, W2, W3, cbar, m_out in _witness_composites():
        inner = equilibrium_map(W_in, m_in)
        cert = ges_certificate(W1, W2, W3, max_gain_matrix(inner))
        seen.clear()
        monkeypatch.setattr(equilibria, "_witnessed", recorded)
        comp = compose_maps(inner, W1, W2, W3, cbar, m_out, certificate=cert)
        monkeypatch.setattr(equilibria, "_witnessed", _witnesses_nothing)
        # the same kept candidates, so the same pieces, bit for bit
        assert _piece_bytes(compose_maps(inner, W1, W2, W3, cbar, m_out,
                                         certificate=cert)) == _piece_bytes(comp)
        points = np.concatenate([D for *_, D in seen])
        witnessed += len(points)
        unbounded += len(points) if np.isinf(m_out).any() else 0
        for G, g, keep, D in seen:
            for Gk, gk, kk, d in zip(G, g, keep, D):
                assert np.all(Gk[kk] @ d + gk[kk] > 0)  # d lies in the candidate's region
        # and the composite's value there is the joint equilibrium
        for d in points[:: max(1, len(points) // 4)]:
            x, _ = joint_fixed_point(W1, W2, W3, cbar, m_out, W_in, m_in, d)
            np.testing.assert_allclose(comp.eval(d), x, atol=1e-8)
    assert witnessed > 0 and unbounded > 0


def test_box_threshold_scales_with_the_row():
    sigmas = np.array([[ZERO], [LINEAR], [SATURATED]])
    m = np.array([2.0])
    # the row -x + b peaks at x = 0 in the Zero and Linear boxes, where it
    # is b, and is b - 2 at Saturated; the tolerance is 1e-6 (2 + |b|)
    for b, want in [(-1.9e-6, [False, False, True]), (-2.1e-6, [True, True, True]),
                    (2.5, [False, False, False])]:
        np.testing.assert_array_equal(_box_empty(np.array([[-1.0]]), np.array([b]), sigmas, m),
                                      want)
    # the rows' own sizes set the tolerance: 1e-6 (1 + 1e6 + |b|) at |Gi| = 1e6
    assert not _box_empty(np.array([[-1e6]]), np.array([-0.5]), sigmas[:1], m).any()
    assert _box_empty(np.array([[-1e6]]), np.array([-1.5]), sigmas[:1], m).all()


def test_witness_threshold_scales_with_the_row():
    keep = np.array([[True, False]])
    # the row x + b at d = 0 has margin b and tolerance 1e-6 (1 + |b|); the
    # second row is padding, so its -1 counts for nothing
    for b, want in [(0.9e-6, False), (1.1e-6, True)]:
        G, g = np.array([[[1.0], [0.0]]]), np.array([[b, -1.0]])
        assert _WITNESSED(G, g, keep, np.zeros((1, 1)))[0] == want
    # the terms' sizes at d set it: 1e-6 (1 + 1e6 + |g|) with |G_r| |d| = 1e6
    G = np.array([[[1e6], [0.0]]])
    for margin, want in [(1.5, False), (2.5, True)]:
        assert _WITNESSED(G, np.array([[margin - 1e6, 0.0]]), keep, np.ones((1, 1)))[0] == want
    # no point found: nothing is witnessed
    assert not _WITNESSED(G, np.array([[1.0, 0.0]]), keep, np.full((1, 1), np.nan))[0]


def _perfbench_map_build():
    """perfbench's MapBuild workload class, imported from its file."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.MapBuild


# SHA-256 of the composite pieces (label, F, f, G, g bytes, in order) of
# perfbench's map_build pairs for seeds 1-3, recorded before the box test
# (NumPy 2.4 with OpenBLAS, x86-64)
_MAP_BUILD_SHA256 = "d112f50f8f168e1410ef3bb09a70508f1be17ed1b08de7377a8d787daa23cf2c"


@pytest.mark.parametrize("settle", ["box", "lp only", "no witness", "witness only"])
def test_perfbench_map_build_composites_are_pinned(settle, monkeypatch):
    _settle(monkeypatch, box=settle in ("box", "no witness"),
            witness=settle in ("box", "witness only"))
    MapBuild = _perfbench_map_build()
    blob = []
    for seed in (1, 2, 3):
        for p in MapBuild(seed, None).pairs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = MapBuild._build(p)
            assert out["passed"]
            blob.append([(label,) + tuple(a.tobytes() for a in arrays)
                         for label, *arrays in out["composite"]])
    assert hashlib.sha256(repr(blob).encode()).hexdigest() == _MAP_BUILD_SHA256


# -- stacked piece builder against one pattern at a time -----------------------


def _builder_instances():
    """Seeded (W, m) with n <= 4 and mixed ceilings; every third has W_00 = 1,
    so its patterns with node 0 Linear are singular."""
    rng = np.random.default_rng(89)
    out = []
    for k in range(12):
        W, m = random_contractive(rng, n_max=4)
        if k % 3 == 0:
            W[0, 0] = 1.0
        out.append((W, m))
    return out


def _all_patterns(m):
    return itertools.product(*[(ZERO, LINEAR) if np.isinf(v) else (ZERO, LINEAR, SATURATED)
                               for v in m])


def _assert_same_bits(piece, want):
    for got, ref in zip((piece.F, piece.f, piece.G, piece.g), want):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("chunk", [equilibria._PATTERN_CHUNK, 1, 7])
def test_stacked_pieces_match_one_pattern_at_a_time(chunk, monkeypatch):
    monkeypatch.setattr(equilibria, "_PATTERN_CHUNK", chunk)
    skipped = 0
    for W, m in _builder_instances():
        n = len(m)
        want = {}
        for sigma in _all_patterns(m):
            rows = pattern_piece_oracle(W, m, sigma, np.full(n, -0.0))
            if rows is None:
                skipped += 1
                with pytest.warns(UserWarning, match="singular"):
                    assert piece_for_pattern(W, m, sigma) is None
            else:
                want[sigma] = rows
                _assert_same_bits(piece_for_pattern(W, m, sigma), rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pa = equilibrium_map(W, m)
        assert [p.label for p in pa.pieces] == list(want)
        for p in pa.pieces:
            _assert_same_bits(p, want[p.label])
    assert skipped > 0

    # composites: each kept piece is its outer pattern's piece under the
    # inner piece's effective weights, followed by the inner region rows
    rng = np.random.default_rng(97)
    composites = 0
    for (W_in, m_in), (W1, m_out) in zip(_builder_instances()[:6], _builder_instances()[6:]):
        if max(len(m_in), len(m_out)) > 3:
            continue
        composites += 1
        W2 = rng.normal(scale=0.3, size=(len(m_out), len(m_in)))
        W3 = rng.normal(scale=0.3, size=(len(m_in), len(m_out)))
        cbar = rng.normal(size=len(m_in))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inner = equilibrium_map(W_in, m_in)
            comp = compose_maps(inner, W1, W2, W3, cbar, m_out,
                                certificate=SimpleNamespace(passed=True))
        assert len(comp) > 0
        _assert_composite_matches_oracle(inner, comp, W1, W2, W3, cbar, m_out)
    assert composites >= 3


def _assert_composite_matches_oracle(inner, comp, W1, W2, W3, cbar, m_out):
    """Each kept piece is its outer pattern's piece under the inner piece's
    effective weights, followed by the inner region rows, bit for bit."""
    lams = {p.label: p for p in inner.pieces}
    k = len(inner.pieces[0].label)
    for p in comp.pieces:
        lam = lams[p.label[:k]]
        F, f, G, g = pattern_piece_oracle(W1 + W2 @ lam.F @ W3, m_out, p.label[k:],
                                          W2 @ (lam.F @ cbar + lam.f))
        Gi = lam.G @ W3
        _assert_same_bits(p, (F, f, np.vstack([G, Gi @ F]),
                              np.concatenate([g, Gi @ f + lam.G @ cbar + lam.g])))


def _ragged_composite_args():
    """(inner, W1, W2, W3, cbar, m_out): a hand-built inner map on 2 inputs
    whose pieces (0,) to (3,) have 0, 1, 2 and 3 region rows, and a 4-node
    outer layer with 36 patterns.  The rows are loose, so every inner piece
    keeps composite pieces.  A stack of these candidates that padded each
    piece's rows to 3 would take a 1-row product through gemv instead of a
    dot, and about half of those differ from the dot in the last bit."""
    rng = np.random.default_rng(5)
    inner = PiecewiseAffineMap(pieces=tuple(
        AffinePiece(rng.normal(scale=0.3, size=(2, 2)), rng.normal(size=2),
                    rng.normal(size=(r, 2)), rng.uniform(5.0, 9.0, size=r), (r,))
        for r in range(4)), domain_dim=2, output_dim=2)
    W1 = rng.normal(scale=0.15, size=(4, 4))
    W2 = rng.normal(scale=0.3, size=(4, 2))
    W3 = rng.normal(scale=0.3, size=(2, 4))
    return inner, W1, W2, W3, rng.normal(size=2), np.array([1.5, np.inf, 2.0, np.inf])


@pytest.mark.parametrize("chunk", [equilibria._PATTERN_CHUNK, 7])
def test_composite_of_unequal_inner_row_counts_matches_one_pattern_at_a_time(chunk, monkeypatch):
    monkeypatch.setattr(equilibria, "_PATTERN_CHUNK", chunk)
    inner, W1, W2, W3, cbar, m_out = _ragged_composite_args()
    cert = SimpleNamespace(passed=True)
    comp = compose_maps(inner, W1, W2, W3, cbar, m_out, certificate=cert)
    assert {p.label[0] for p in comp.pieces} == {0, 1, 2, 3}
    _assert_composite_matches_oracle(inner, comp, W1, W2, W3, cbar, m_out)
    empty = compose_maps(PiecewiseAffineMap(pieces=(), domain_dim=2, output_dim=2),
                         W1, W2, W3, cbar, m_out, certificate=cert)
    assert len(empty) == 0 and empty.domain_dim == empty.output_dim == 4


@pytest.mark.parametrize("chunk", [equilibria._PATTERN_CHUNK, 7, 1])
def test_compose_maps_builds_its_candidates_in_stacks(chunk, monkeypatch):
    inner, W1, W2, W3, cbar, m_out = _ragged_composite_args()
    build, sizes = equilibria._pattern_pieces, []

    def counted(W, m, sigmas, off, owner, table):
        sizes.append(len(sigmas))
        return build(W, m, sigmas, off, owner, table)

    monkeypatch.setattr(equilibria, "_PATTERN_CHUNK", chunk)
    monkeypatch.setattr(equilibria, "_pattern_pieces", counted)
    compose_maps(inner, W1, W2, W3, cbar, m_out, certificate=SimpleNamespace(passed=True))
    # (inner piece, outer pattern) pairs, not one round per inner piece
    candidates = len(inner) * 36
    assert len(sizes) == -(-candidates // chunk) and sum(sizes) == candidates


def _linear_set_groups(pa, k=0):
    """pa's piece indices grouped by (inner label, Linear set of the outer
    pattern), the outer pattern starting at label position k."""
    groups = {}
    for i, label in enumerate(pa.labels):
        key = (label[:k], tuple(r == LINEAR for r in label[k:]))
        groups.setdefault(key, []).append(i)
    return groups.values()


def test_patterns_of_one_linear_set_hold_one_f():
    # Zero and Saturated give the same I - S_l W, so every pattern of a
    # Linear set gets its F from one solve, bit for bit
    base = _memory_guard_map()
    inner, W1, W2, W3, cbar, m_out = _ragged_composite_args()
    comp = compose_maps(inner, W1, W2, W3, cbar, m_out, certificate=SimpleNamespace(passed=True))
    for pa, k in ((base, 0), (_oracle_maps()[1], 2), (_composite(), 3), (comp, 1)):
        shared = 0
        for group in _linear_set_groups(pa, k):
            assert len({pa.F[i].tobytes() for i in group}) == 1
            shared += len(group) > 1
        assert shared > 0


def _solve_spy(monkeypatch):
    """Lists of the matrices handed to the stacked F solves (right-hand
    sides of n columns, n > 1) and to the f solves (one column)."""
    seen, solve = {"F": [], "f": []}, np.linalg.solve

    def spy(a, b):
        if a.ndim == 3:
            seen["F" if b.shape[-1] > 1 else "f"].extend(a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return seen


def test_one_F_solve_per_owner_and_linear_set(monkeypatch):
    seen = _solve_spy(monkeypatch)
    pa = _memory_guard_map()  # n = 8: 3^5 2^3 = 1 944 patterns, 2^8 Linear sets
    assert len(pa) == 1944 and len(seen["F"]) == 256 and len(seen["f"]) == 1944
    assert len({a.tobytes() for a in seen["F"]}) == 256
    # a composite: one F solve per (inner piece, outer Linear set) pair
    inner, W1, W2, W3, cbar, m_out = _ragged_composite_args()
    seen["F"].clear(), seen["f"].clear()
    compose_maps(inner, W1, W2, W3, cbar, m_out, certificate=SimpleNamespace(passed=True))
    assert len(seen["F"]) == len(inner) * 2**4 and len(seen["f"]) == len(inner) * 36


def _locator_reference(pa):
    """(slope, offset, scale) of pa's _Locator, its residuals and row sums
    read one piece at a time."""
    W, m = pa._net
    n, gamma = len(m), (len(m) + 2) * np.finfo(float).eps
    eye, norm_W = np.eye(n), np.abs(W).sum(axis=1).max()
    v = equilibria._contraction_weights(np.abs(W))
    r = np.abs((eye - np.abs(W)) @ v - 1.0).max() + gamma * ((1 + norm_W) * v.max() + 1)
    K = v.max() / ((1 - r) * min(1.0, v.min()))
    res = norm_F = norm_f = 0.0
    for F, f, label in zip(pa.F, pa.f, pa.labels):
        lin, sat = np.array(label) == LINEAR, np.array(label) == SATURATED
        A = eye - lin[:, None] * W
        res = max(res, np.abs(A @ F - eye * lin[:, None]).sum(axis=1).max(),
                  np.abs((A @ f[:, None])[:, 0] - np.where(sat, m, 0.0)).max())
        norm_F, norm_f = max(norm_F, np.abs(F).sum(axis=1).max()), max(norm_f, np.abs(f).max())
    res *= 1 + gamma
    M = np.abs(m[np.isfinite(m)]).max(initial=0.0)
    return (res + gamma * ((1 + 6 * norm_W) * norm_F + 5),
            equilibria._REGION_TOL + res + gamma * ((1 + 6 * norm_W) * norm_f + 4 * M),
            (1 + 2 * K * K) * (1 + gamma))


def test_locator_constants_equal_the_per_piece_reference():
    for pa in _locator_maps():
        got = pa._locator
        want = _locator_reference(pa)
        assert [float(x).hex() for x in (got.slope, got.offset, got.scale)] == \
            [float(x).hex() for x in want]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), pieces=st.integers(1, 4),
       rows=st.integers(0, 4))
def test_stacked_box_test_equals_one_inner_piece_at_a_time(seed, n, pieces, rows):
    rng = np.random.default_rng(seed)
    m = np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0.5, 3.0, size=n))
    sigmas = np.array(list(_all_patterns(m)))
    count = rng.integers(0, rows + 1, size=pieces)
    Gi = rng.normal(size=(pieces, rows, n))
    b = rng.normal(scale=2.0, size=(pieces, rows))
    real = np.arange(rows) < count[:, None]
    Gi, b = Gi * real[..., None], b * real  # rows past a piece's count are zero
    # candidates: every (inner piece, outer pattern) pair, inner-piece-major
    lam = np.repeat(np.arange(pieces), len(sigmas))
    got = _box_empty(Gi[lam], b[lam], np.tile(sigmas, (pieces, 1)), m)
    want = [_box_empty(Gi[k, : count[k]], b[k, : count[k]], sigmas, m) for k in range(pieces)]
    np.testing.assert_array_equal(got, np.concatenate(want))


def test_map_and_composite_count_singular_skips():
    with pytest.warns(UserWarning, match=r"equilibrium_map: skipped 2 singular pattern\(s\)"):
        pa = equilibrium_map(np.diag([1.0, 0.5]), np.full(2, np.inf))
    assert [p.label for p in pa.pieces] == [(ZERO, ZERO), (ZERO, LINEAR)]
    # on the inner piece where h is the identity, W_eff = W1 + W2 W3 has
    # (W_eff)_00 = 1: the 3 outer patterns with node 0 Linear are singular.
    # The stand-in certificate only lets compose_maps run; the count does
    # not depend on contraction.
    inner = equilibrium_map(np.zeros((1, 1)), np.array([np.inf]))
    with pytest.warns(UserWarning, match=r"compose_maps: skipped 3 singular pattern\(s\)"):
        comp = compose_maps(inner, np.diag([0.5, 0.5]), np.array([[0.5], [0.0]]),
                            np.array([[1.0, 0.0]]), np.zeros(1), np.array([np.inf, 2.0]),
                            certificate=SimpleNamespace(passed=True))
    assert len(comp) > 0
    assert not [p for p in comp.pieces if p.label[:2] == (LINEAR, LINEAR)]


def _cond_rule_pieces(W, m, sigmas, off):
    """_pattern_pieces without the screen: one np.linalg.cond per pattern
    decides which patterns are kept.  The reference for the screen."""
    eye = np.eye(sigmas.shape[1])
    lin, sat = sigmas == LINEAR, sigmas == SATURATED
    A = eye - lin[:, :, None] * W
    cond = np.linalg.cond(A)
    ok = np.isfinite(cond) & (cond <= equilibria._SINGULAR_RCOND)
    A, sigmas, lin, sat = A[ok], sigmas[ok], lin[ok], sat[ok]
    F = np.linalg.solve(A, eye * lin[:, None, :])
    f = np.linalg.solve(A, (np.where(sat, m, 0.0) + lin * off)[..., None])[..., 0]
    Wf = (W @ f[..., None])[..., 0] + off
    return ok, F, f, *_regime_rows(W @ F + eye, Wf, sigmas, m)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       plant=st.sampled_from(["none", "singular", "near"]), base=st.booleans())
def test_singularity_screen_decides_as_the_svd_rule(seed, n, plant, base):
    rng = np.random.default_rng(seed)
    W = rng.normal(scale=rng.uniform(0.2, 1.5), size=(n, n))
    m = np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0.5, 3.0, size=n))
    i = rng.integers(n)
    if plant != "none":
        # where node i is Linear, row i of I - S_l W is delta e_i: exactly
        # singular at delta = 0, else cond_2 about 1/delta, 1e10 to 2e12
        W[i] = 0.0
        W[i, i] = 1.0 if plant == "singular" else 1.0 - 10.0 ** -rng.uniform(10.0, 12.3)
    sigmas = np.array(list(_all_patterns(m)))
    off = np.full(n, -0.0) if base else rng.normal(size=n)
    want = _cond_rule_pieces(W, m, sigmas, off)
    svd_cond, seen = np.linalg.cond, []

    def cond(A):
        seen.extend(a.tobytes() for a in A)
        return svd_cond(A)

    with mock.patch.object(np.linalg, "cond", cond):
        got = equilibria._pattern_pieces(W[None], m, sigmas, off[None],
                                         np.zeros(len(sigmas), dtype=np.intp),
                                         equilibria._solve_table(W[None], np.arange(1 << n)))
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # np.linalg.cond sees exactly the patterns whose LU has no zero pivot
    # and whose bound |A|_F |A^-1|_F exceeds 1e10, up to rounding
    A = np.eye(n) - (sigmas == LINEAR)[:, :, None] * W
    for a, sign in zip(A, np.linalg.slogdet(A)[0]):
        bound = np.linalg.norm(a) * np.linalg.norm(np.linalg.inv(a)) if sign else 0.0
        if not sign or bound < 5e9:
            assert a.tobytes() not in seen
        elif bound > 2e10:
            assert a.tobytes() in seen
    if plant == "singular":
        assert not got[0].all()
    elif plant == "near" and n > 1:
        assert seen


def test_gain_reductions_match_the_per_piece_loop():
    maps = _oracle_maps() + [_composite()]
    for W, m in _builder_instances():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            maps.append(equilibrium_map(W, m))
    for pa in maps:
        assert lipschitz_constant(pa) == max(float(np.linalg.norm(p.F, 2)) for p in pa.pieces)
        want = np.zeros_like(pa.pieces[0].F)
        for p in pa.pieces:
            np.maximum(want, np.abs(p.F), out=want)
        assert max_gain_matrix(pa).tobytes() == want.tobytes()

"""Exact piecewise-affine equilibrium maps of linear-threshold networks.

For fixed weights W and ceilings m, the equilibria x = [W x + d]_0^m form
a piecewise-affine map of the external input d.  Each piece corresponds to
a switching pattern sigma assigning every node one of three regimes:

    Zero       x_i = 0          requires z_i <= 0
    Linear     x_i = z_i        requires 0 <= z_i <= m_i
    Saturated  x_i = m_i        requires z_i >= m_i

where z = W x + d is the pre-activation at the candidate equilibrium.  On
the piece generated by sigma the equilibrium is x = F d + f with

    F = (I - S_l W)^-1 S_l,     f = (I - S_l W)^-1 S_s m,

S_l and S_s the indicator diagonals of the Linear and Saturated regimes
(the product S_s m is taken as 0 on rows where S_s vanishes, so unbounded
ceilings never produce inf * 0).  The region of validity is the polyhedron
{d : G d + g >= 0} obtained by writing the semantic regime conditions on
z = W (F d + f) + d; these conditions, not any rearranged closed form, are
what the implementation evaluates.  Patterns have one order, their rank
(see _radix), and both map builders read one stream, _candidates, of
every (owner, pattern) pair, owner-major and in rank order: a base map
has one owner, a composite one per inner piece.  F and I - S_l W depend
only on a pattern's owner and Linear set, as Zero and Saturated give
the same system, so each (owner, Linear set) is solved once (see
_solve_table).  The pairs are built in stacks of up to _PATTERN_CHUNK:
one stacked solve for f and masked region rows per stack, so the
temporaries are O(chunk * n^2), and every piece has the bits it would
have if built alone.  The map holds the stacks, read-only; its
AffinePieces view them, built only when read.

Saturated is excluded for nodes with unbounded ceilings.  Patterns whose
linear system is singular (condition number above _SINGULAR_RCOND) are
skipped: the map simply has no such piece.  A Frobenius-norm bound from
the solve settles nearly every Linear set, and only the few it leaves
open take an SVD (see _solve_table).
For the base map every remaining pattern has a nonempty region: choosing
target pre-activations z strictly inside each regime interval and setting
d = z - W x(z), with x(z) the state pinned by the pattern, produces an
interior witness.  Composed maps (see compose_maps) gain extra region
rows from the inner map, so there emptiness is real.  Their candidates
are the stream's (inner piece, outer pattern) pairs.  A candidate is
first dropped without an LP when one inner row is negative over the
whole box its outer pattern allows the outer state (see _box_empty).
Of the rest, a candidate is kept without an LP when a point of its
region is exhibited, as for the base map: the first of a fixed table of
outer states in that box at which every inner row is positive gives the
d whose equilibrium it is, and the candidate's own rows must hold at d
with a margin (see _witness and _witnessed).  The others are decided by
max-margin LPs, _LP_CHUNK candidates stacked into one block-diagonal
LP, assembled from one stack of every undecided candidate's rows with an
owner index.  Every LP in ltnet goes through linprog here, HiGHS through
scipy.optimize.milp; SciPy is imported by the first LP, not by this
module.

A map locates a point by the first piece in label order whose region
holds it.  A map that equilibrium_map built with every pattern kept for
a W with rho(|W|) < 1, and with more rows than one point chunk's tile,
first asks its _Locator: pattern iteration names a candidate piece, and
a margin test on the candidate's pre-activations, widened by the
contraction constant, proves that no other piece's rows hold the point
(see _Locator).  Every other point, and every point of any other map,
is scanned in chunks against the pieces in label order, in tiles of at
most _QUERY_TILE row x point entries, and a point leaves the scan at
the first tile that covers it (see PiecewiseAffineMap._scan), so the
scan's memory does not grow with the batch and its work stops at each
point's first covering tile.  Both give the piece the scan alone would.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .network import (_REGION_TOL, LINEAR, SATURATED, ZERO, AffinePiece, _as_readonly,
                      _clip_regime, _regime_rows, clip_box)

__all__ = [
    "PiecewiseAffineMap",
    "NoCoveringPiece",
    "NotCertified",
    "UniquenessNotCertified",
    "piece_for_pattern",
    "equilibrium_map",
    "solve_equilibrium_iterative",
    "compose_maps",
    "lipschitz_constant",
    "max_gain_matrix",
]

# pinned tolerances
_SINGULAR_RCOND = 1e12  # condition-number cutoff for a usable linear solve
_QUERY_TILE = 1 << 15  # row x point entries per point-location tile; isqrt = 181 points per chunk
_LP_CHUNK = 64  # regions per stacked emptiness LP
_WITNESS_SAMPLES = 64  # outer states a composite candidate's witness search tries
_PATTERN_CHUNK = 256  # patterns per stacked piece build: memory O(chunk * n^2)
_STACK_LIMIT = 3**11 * 11**2  # patterns x n^2 an enumeration may build: n = 11, every m finite


class NoCoveringPiece(Exception):
    """No piece region contains the queried input."""


class NotCertified(Exception):
    """An operation that requires a contraction certificate lacks one."""


class UniquenessNotCertified(NotCertified):
    """Composition requested without a certificate for the composite equation."""


def _radix(m):
    """ltnet's one pattern order: the regimes per node, 3 under a finite
    ceiling and 2 (no Saturated) under m_i = inf, and each node's place
    value, node 0 the most significant.  The pattern of rank k is
    k // place % radix, so rank order is label order."""
    radix = np.where(np.isinf(m), 2, 3)
    return radix, np.array([math.prod(radix[i + 1 :]) for i in range(len(m))], dtype=np.intp)


def _solve_keys(sigmas, owner):
    """Solve-table key of each pattern sigmas (P, n) of owner (P,): owner 2^n
    plus the pattern's Linear nodes as bits, node 0 the highest."""
    n = sigmas.shape[1]
    return (owner << n) + (sigmas == LINEAR) @ (1 << np.arange(n - 1, -1, -1))


def _linear_nodes(keys, n):
    """The Linear set (K, n) of each solve-table key: _solve_keys' inverse."""
    return (keys[:, None] >> np.arange(n - 1, -1, -1)) & 1 == 1


def _solve_table(W, keys):
    """The solve table of the keys (K,), increasing (see _solve_keys), for
    the weights W (L, n, n) of each owner: (row, F), row (L 2^n,) the index
    of each key's F in F (ok keys, n, n), -1 where the key's linear system
    is singular or the key is not among keys.

    A = I - S_l W[owner] and F = A^-1 S_l depend only on a pattern's
    owner and Linear set (Zero and Saturated give the same A), so every
    pattern of a key gets its F, and is kept or skipped, by this one
    solve.  Keys go in stacks of up to _PATTERN_CHUNK, so the temporaries
    are O(chunk * n^2); a table holds an F for an ok key only, and a
    builder drops it before joining its parts.

    A key is ok when cond_2(A) <= _SINGULAR_RCOND.  The SVD behind that
    test is screened: a zero LU pivot (slogdet's sign 0) drops a key, as
    a stacked solve fails on the same getrf, and since A^-1 = I + F W,
    cond_2(A) <= |A|_F |I + F W|_F keeps one whose bound is at most 1e-2
    _SINGULAR_RCOND.  Only the keys the bound leaves open (a NaN bound
    included) take np.linalg.cond.
    """
    n = W.shape[-1]
    eye = np.eye(n)
    ok, stacks = np.zeros(len(W) << n, dtype=bool), []
    for lo in range(0, len(keys), _PATTERN_CHUNK):
        chunk = keys[lo : lo + _PATTERN_CHUNK]
        lin = _linear_nodes(chunk, n)
        Wk = W[chunk >> n]
        A = eye - lin[:, :, None] * Wk  # I - S_l W
        idx = np.flatnonzero(np.linalg.slogdet(A)[0])
        A, lin, Wk = A[idx], lin[idx], Wk[idx]
        F = np.linalg.solve(A, eye * lin[:, None, :])
        bound = np.linalg.norm(A, axis=(1, 2)) * np.linalg.norm(eye + F @ Wk, axis=(1, 2))
        good = bound <= 1e-2 * _SINGULAR_RCOND
        if not good.all():  # a NaN bound is open too
            open_ = ~good
            cond = np.linalg.cond(A[open_])
            good[open_] = np.isfinite(cond) & (cond <= _SINGULAR_RCOND)
        stacks.append(F[good])
        ok[chunk[idx[good]]] = True
    return np.where(ok, np.cumsum(ok) - 1, -1), np.concatenate(stacks or [np.zeros((0, n, n))])


def _pattern_pieces(W, m, sigmas, off, owner, table):
    """Stacked pieces of the patterns sigmas (P, n) for x = [W x + off + d]_0^m.

    W (L, n, n) and off (L, n) hold one set per owner, owner (P,) names
    each pattern's, and table is the owners' _solve_table (see _candidates).
    Returns (ok, F, f, G, g, keep): ok (P,) marks the patterns whose
    linear system is nonsingular, and the rest hold their K = ok.sum()
    pieces: F (K, n, n), gathered from the table, f (K, n), and candidate
    region rows G (K, R, n), g (K, R) of which the rows where keep (K, R)
    is true form G d + g >= 0, in node order (see _regime_rows).  Base
    maps pass off = -0.0, the bitwise additive identity (+0.0 would turn
    signed zeros in f and g into +0.0).  Each stacked product, solve and
    condition number has the bits of the same call on one pattern; f @ W.T
    and einsum forms do not.  A product keeps its bits only at the same
    per-pattern shape: a (1, k) @ (k, 1) product is a dot, an (R >= 2, k)
    @ (k, 1) one a gemv, and their last bits can differ, so stacks never
    pad rows into a product.
    """
    rows, Fs = table
    row = rows[_solve_keys(sigmas, owner)]
    ok = row >= 0
    sigmas, owner = sigmas[ok], owner[ok]
    W, off = W[owner], off[owner]
    eye = np.eye(sigmas.shape[1])
    lin, sat = sigmas == LINEAR, sigmas == SATURATED
    A = eye - lin[:, :, None] * W  # I - S_l W
    F = Fs[row[ok]]
    # S_s m is 0 on rows without saturation, so m_i = inf never meets a 0
    f = np.linalg.solve(A, (np.where(sat, m, 0.0) + lin * off)[..., None])[..., 0]
    # regime conditions on z = W(F d + f) + off + d
    Wf = (W @ f[..., None])[..., 0] + off
    return ok, F, f, *_regime_rows(W @ F + eye, Wf, sigmas, m)


def _candidates(W, m, off, who):
    """Stacks (owner, sigmas, F, f, G, g, keep) of up to _PATTERN_CHUNK
    nonsingular (owner, pattern) pairs of x = [W x + off + d]_0^m, W (L, n,
    n) and off (L, n) one per owner, owner-major and in rank order.  One
    _solve_table serves the stream; its end drops it and warns "<who>:
    skipped N singular pattern(s)" when a pair was skipped."""
    radix, place = _radix(m)
    count, n_singular = int(radix.prod()), 0
    table = _solve_table(W, np.arange(len(W) << W.shape[-1]))
    for lo in range(0, len(W) * count, _PATTERN_CHUNK):
        pair = np.arange(lo, min(lo + _PATTERN_CHUNK, len(W) * count))
        owner, sigmas = pair // count, (pair % count)[:, None] // place % radix
        ok, *piece = _pattern_pieces(W, m, sigmas, off, owner, table)
        n_singular += len(ok) - int(ok.sum())
        yield owner[ok], sigmas[ok], *piece
    del table
    if n_singular:
        warnings.warn(f"{who}: skipped {n_singular} singular pattern(s)")


def piece_for_pattern(W, m, sigma) -> Optional[AffinePiece]:
    """Build the affine piece generated by the switching pattern sigma.

    Returns None (with a warning) when the pattern's linear system is
    singular, or when sigma saturates a node with an unbounded ceiling.
    """
    W = np.asarray(W, dtype=float)
    m = np.asarray(m, dtype=float)
    n = W.shape[0]
    sigma = tuple(int(s) for s in sigma)
    if len(sigma) != n:
        raise ValueError(f"pattern length {len(sigma)} != n = {n}")
    if np.any((np.array(sigma) == SATURATED) & np.isinf(m)):
        warnings.warn(f"pattern {sigma} saturates an unbounded node; skipped")
        return None
    sigmas, owner = np.array([sigma]), np.zeros(1, dtype=np.intp)
    table = _solve_table(W[None], _solve_keys(sigmas, owner))
    ok, F, f, G, g, keep = _pattern_pieces(W[None], m, sigmas, np.full((1, n), -0.0), owner,
                                           table)
    if not ok[0]:
        warnings.warn(f"pattern {sigma} has a singular linear system; skipped")
        return None
    return AffinePiece(F[0], f[0], G[0, keep[0]], g[0, keep[0]], sigma)


@dataclass(frozen=True, init=False, eq=False)
class PiecewiseAffineMap:
    """Piecewise-affine equilibrium map d -> x: piece k is d -> F[k] d + f[k]
    on {d : G[r] d + g[r] >= 0}, r = ends[k]:ends[k+1], held as read-only
    stacks in label order, so evaluation resolves boundary ties by the
    lexicographically smallest generating pattern.  The constructor sorts
    AffinePieces by label and stacks them; one without region rows holds
    the one row 0·d + 0 >= 0.  So dataclasses.replace(pa, ...) builds a
    map from pa's pieces (or the pieces given) and dims; the stacks are
    not arguments."""

    # the constructor's argument, which replace reads back from the pieces
    # property below (its class attribute is this field's default)
    pieces: InitVar[tuple]
    labels: tuple = field(init=False)
    F: np.ndarray = field(init=False)  # (P, output_dim, domain_dim)
    f: np.ndarray = field(init=False)  # (P, output_dim)
    G: np.ndarray = field(init=False)  # (R, domain_dim)
    g: np.ndarray = field(init=False)  # (R,)
    ends: np.ndarray = field(init=False)  # (P + 1,)
    domain_dim: int
    output_dim: int

    def __init__(self, pieces, domain_dim, output_dim):
        pieces = sorted(pieces, key=lambda p: p.label)
        rows = [(p.G, p.g) if len(p.g) else (np.zeros((1, domain_dim)), np.zeros(1))
                for p in pieces]
        self._hold([([p.label for p in pieces],
                     np.array([p.F for p in pieces] or np.zeros((0, output_dim, domain_dim))),
                     np.array([p.f for p in pieces] or np.zeros((0, output_dim))),
                     np.concatenate([G for G, _ in rows] or [np.zeros((0, domain_dim))]),
                     np.concatenate([g for _, g in rows] or [np.zeros(0)]),
                     [len(g) for _, g in rows])], domain_dim, output_dim)

    @classmethod
    def _of_stacks(cls, parts, n):
        """The n -> n map of a builder's stacks (see _hold)."""
        if not parts:
            return cls((), n, n)
        pa = cls.__new__(cls)
        pa._hold(parts, n, n)
        return pa

    def _hold(self, parts, domain_dim, output_dim):
        """Hold parts, stacks (labels, F, f, G, g, row counts) per chunk in label
        order, joined unless one, read-only; a view of another array is copied."""
        labels, *arrays = zip(*parts)
        *arrays, counts = (a[0] if len(parts) == 1 else np.concatenate(a) for a in arrays)
        arrays = [a if a.base is None else a.copy() for a in arrays]
        arrays.append(np.concatenate(([0], np.cumsum(counts, dtype=np.intp))))
        for a in arrays:
            a.setflags(write=False)
        vars(self).update(zip(("labels", "F", "f", "G", "g", "ends", "domain_dim", "output_dim"),
                              (tuple(itertools.chain(*labels)), *arrays, domain_dim, output_dim)))

    def __len__(self):
        return len(self.labels)

    @cached_property
    def pieces(self):
        """AffinePiece views of the stacks, in label order, built when first read."""
        ends = self.ends.tolist()
        return tuple(AffinePiece(F, f, self.G[a:b], self.g[a:b], label) for F, f, a, b, label
                     in zip(self.F, self.f, ends, ends[1:], self.labels))

    def _scan(self, D):
        """Yield (points, pieces): index pairs of the rows of D and the first
        piece in label order whose region holds them, G d + g >= -_REGION_TOL,
        tile by tile.

        Points go in chunks of isqrt(_QUERY_TILE), and a chunk's live points
        meet the pieces in tiles of at most _QUERY_TILE row x point entries
        (at least one piece), so the scan's memory does not grow with D.  A
        point leaves the scan at the first tile that covers it, and the
        tiles grow as points leave.  A product of 2 to 192 columns gives
        each entry the bits it has in any other such product (NumPy 2.4 on
        OpenBLAS; wider ones differ in their last N mod 8 columns), so a
        point's piece does not depend on its batch.  But a point left alone
        in a tile goes through a matrix-vector product, whose last bits can
        differ, so its piece can change where a row is within an ulp of
        -_REGION_TOL.  A single point reads _QUERY_TILE rows per tile, so on
        maps of up to that many rows it is one matrix-vector product over
        every row.  Queries reach it through _first, which hands it only the
        points that a map's _Locator could not certify.
        """
        ends, P, chunk = self.ends, len(self), math.isqrt(_QUERY_TILE)
        for lo in range(0, len(D), chunk):
            D_live = D[lo : lo + chunk]
            live = np.arange(lo, lo + len(D_live))
            a = 0
            while a < P and live.size:
                r0 = ends[a]
                b = max(ends.searchsorted(r0 + _QUERY_TILE // live.size, "right") - 1, a + 1)
                r1 = ends[b]
                rows = self.G[r0:r1] @ D_live.T
                rows += self.g[r0:r1, None]
                starts = ends[a:b] - r0 if a else ends[:b]
                member = np.logical_and.reduceat(rows >= -_REGION_TOL, starts, axis=0)
                hit, pcs = member.any(axis=0), a + np.argmax(member, axis=0)
                if hit.all():
                    yield live, pcs
                    break
                yield live[hit], pcs[hit]
                live, D_live = live[~hit], D_live[~hit]
                a = b

    def _points(self, D, ndim):
        """D as a float array of ndim axes, the last of length domain_dim."""
        D = np.asarray(D, dtype=float)
        if D.ndim != ndim or D.shape[-1] != self.domain_dim:
            raise ValueError(f"points must have length domain_dim = {self.domain_dim}; "
                             f"got an array of shape {D.shape}")
        return D

    def pieces_at(self, d):
        """All pieces whose region contains d, in label order, read from one
        product over every row (each piece has at least one); none at a non-finite d."""
        d = self._points(d, 1)
        if not np.isfinite(d).all():
            return []
        member = np.logical_and.reduceat(self.G @ d + self.g >= -_REGION_TOL, self.ends[:-1])
        return [self.pieces[i] for i in np.flatnonzero(member)]

    @cached_property
    def _locator(self):
        """The _Locator of a map that equilibrium_map built with every pattern
        for a W with rho(|W|) < 1 and ceilings m >= 0, once it has more rows
        than one full point chunk's tile reads; else None, and queries take
        the scan alone."""
        net = vars(self).get("_net")
        if net is None or len(self.G) <= math.isqrt(_QUERY_TILE) or not np.all(net[1] >= 0):
            return None
        v = _contraction_weights(np.abs(net[0]))
        return None if v is None else _Locator(self, *net, v)

    def _first(self, D):
        """Index of the first piece in label order whose region holds each
        row of D, -1 where none does and at a non-finite row, which neither
        the locator nor _scan sees.  The locator certifies what it can in
        chunks of isqrt(_QUERY_TILE) points; the rest go to _scan in one
        call, a lone point of a larger batch twice, as a one-column product
        is a matrix-vector product whose last bits can differ."""
        first = np.full(len(D), -1)
        if not np.isfinite(D).all():
            finite = np.isfinite(D).all(axis=1)
            first[finite] = self._first(D[finite])
            return first
        if (locator := self._locator) is not None:
            chunk = math.isqrt(_QUERY_TILE)
            for lo in range(0, len(D), chunk):
                first[lo : lo + chunk] = locator(D[lo : lo + chunk])
        rest = np.flatnonzero(first < 0)
        if not rest.size:
            return first
        if len(rest) < len(D):
            if len(rest) == 1:
                rest = np.repeat(rest, 2)
            D = D[rest]
        for pts, pcs in self._scan(D):
            first[rest[pts]] = pcs
        return first

    def _locate(self, d) -> int:
        """Index of the first piece in label order whose region holds d."""
        d = self._points(d, 1)
        k = int(self._first(d[None])[0])
        if k < 0:
            raise NoCoveringPiece(
                f"no piece covers d={d!r}; the map may be incomplete or the "
                "underlying equation non-contractive at this input"
            )
        return k

    def eval(self, d) -> np.ndarray:
        """Value at d, using the first covering piece in label order: the
        piece a map's _Locator certifies, else the one _scan finds."""
        d = self._points(d, 1)
        k = self._locate(d)
        return self.F[k] @ d + self.f[k]

    __call__ = eval

    def eval_many(self, D) -> np.ndarray:
        """Vectorized evaluation over the rows of D (shape (k, domain_dim)):
        each row's piece as eval finds it, certified by a map's _Locator or
        found by _scan, and one product per piece over its rows."""
        D = self._points(np.atleast_2d(D), 2)
        first = self._first(D)
        if np.any(first < 0):
            bad = int(np.argmax(first < 0))
            raise NoCoveringPiece(f"no piece covers row {bad}: d={D[bad]!r}")
        out = np.empty((D.shape[0], self.output_dim))
        for idx in np.flatnonzero(np.bincount(first, minlength=len(self))):  # label order
            sel = first == idx
            out[sel] = D[sel] @ self.F[idx].T + self.f[idx]
        return out

    def to_jsonable(self):
        return [
            {
                "sigma": list(p.label),
                "F": p.F.tolist(),
                "f": p.f.tolist(),
                "G": p.G.tolist(),
                "g": p.g.tolist(),
            }
            for p in self.pieces
        ]


class _Locator:
    """Certified point location on an equilibrium_map of (W, m) with every
    pattern kept and rho(|W|) < 1, whose piece k is the pattern of rank k.

    A candidate comes from pattern iteration: sigma = regime(d), then
    c = rank(sigma), x = F_c d + f_c, Z = W x + d, sigma = regime(Z), for at
    most 2n rounds until sigma settles.  Nothing rests on the candidate;
    the test below decides whether c is the first piece in label order
    whose rows hold d, the piece _scan would find.

    The certificate.  Let v = (I - |W|)^-1 1 >= 1 and K = max v.  Then
    T(x) = [W x + d]_0^m contracts by 1 - 1/K in the norm max_i |x_i| / v_i,
    so its fixed point x* and z* = W x* + d are unique, and any x has
    |W (x - x*)| <= K^2 |x - T x|_inf at every node.  Let rho_res be the
    largest residual of a stored piece's pattern equations, the row sums
    of |(I - S_l W) F_j - S_l| and |(I - S_l W) f_j - S_s m|, and set
    tau = _REGION_TOL + e(d), e(d) = rho_res (1 + |d|_inf) plus a rounding
    allowance.  If piece j's float rows hold d, its x_j = F_j d + f_j
    meets its regime conditions on z_j = W x_j + d to within tau, so
    |x_j - T x_j|_inf <= tau and |z_j - z*| <= K^2 tau at every node.
    Accept c when Z's regimes are sigma_c and every node of Z lies more
    than tau (1 + 2 K^2) from its nearest kink (0, or a finite m_i).  Then
    c's rows hold d, and a piece j whose rows hold d and whose regime
    differs from c's at some node would need |z_j - Z| > 2 K^2 tau there,
    while |z_j - z*| + |z* - z_c| <= 2 K^2 tau.  So c is the only piece
    whose rows hold d.  The pieces of one Linear set share I - S_l W and
    hold one F, bit for bit, so the F residual and the |F| row sums are
    read once per set, at its piece with every other node Zero; the f
    residual is read at every piece.

    The allowance.  Each float quantity here is a sum of at most n + 2
    rounded terms, so its error is at most gamma = 2 (n + 2) u (u = 2^-53)
    times the sum of the terms' magnitudes.  Write |.| for the largest row
    sum of absolute values over the pieces, delta = |d|_inf, M for the
    largest finite ceiling and s = |F| delta + |f|.  To first order the
    error is gamma times (1 + |W|) s + delta + M for the computed
    residuals; |W| s + delta + M for the stored rows against W F_j + I and
    W f_j (- m); as much for evaluating them, as |G| <= |W| |F| + 1 and
    |g| <= |W| |f| + M; and 2 |W| s + delta for Z against W x_c + d.  The
    allowance takes one more of each term, gamma ((1 + 6 |W|) s + 5 delta
    + 4 M), for the higher orders.  K is enlarged by the residual of the
    solve for v, and the test's own rounding by a factor 1 + gamma.
    """

    def __init__(self, pa, W, m, v):
        n = len(m)
        radix, self.place = _radix(m)
        self.F, self.f, self.W, self.m = pa.F, pa.f, W, m
        gamma = (n + 2) * np.finfo(float).eps  # 2 (n + 2) u
        eye, norm_W = np.eye(n), np.abs(W).sum(axis=1).max(initial=0.0)
        # v's own residual: |W| v = v - 1 - r, so T contracts by 1 - (1 - |r|) / max v
        r = np.abs((eye - np.abs(W)) @ v - 1.0).max() + gamma * ((1 + norm_W) * v.max() + 1)
        K = v.max() / ((1 - r) * min(1.0, v.min())) if r < 1 else np.inf
        # A and F of each Linear set, at its piece with every other node Zero
        lin = _linear_nodes(np.arange(1 << n), n)
        A = eye - lin[:, :, None] * W
        F = pa.F[lin @ self.place]
        res = np.abs(A @ F - eye * lin[:, :, None]).sum(axis=2).max()
        norm_F, norm_f = np.abs(F).sum(axis=2).max(), np.abs(pa.f).max()
        for lo in range(0, len(pa), _PATTERN_CHUNK):
            f = pa.f[lo : lo + _PATTERN_CHUNK]
            sigmas = np.arange(lo, lo + len(f))[:, None] // self.place % radix
            Af = (A[_solve_keys(sigmas, 0)] @ f[..., None])[..., 0]
            res = max(res, np.abs(Af - np.where(sigmas == SATURATED, m, 0.0)).max())
        res *= 1 + gamma  # the row sums' own rounding
        M = np.abs(m[np.isfinite(m)]).max(initial=0.0)
        self.slope = res + gamma * ((1 + 6 * norm_W) * norm_F + 5)  # tau = slope delta + offset
        self.offset = _REGION_TOL + res + gamma * ((1 + 6 * norm_W) * norm_f + 4 * M)
        self.scale = (1 + 2 * K * K) * (1 + gamma)

    def _rank(self, Z):
        """Index of the piece whose pattern is the regimes of each row of Z."""
        return _clip_regime(Z, self.m) @ self.place

    def __call__(self, D):
        """The certified piece of each row of D, -1 where the test fails."""
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows fail
            c = self._rank(D)
            for _ in range(2 * D.shape[1]):
                Z = ((self.F[c] @ D[..., None])[..., 0] + self.f[c]) @ self.W.T + D
                c, last = self._rank(Z), c
                if np.array_equal(c, last):
                    break
            margin = np.minimum(np.abs(Z), np.abs(Z - self.m)).min(axis=1)
            bound = (self.offset + self.slope * np.abs(D).max(axis=1)) * self.scale
            return np.where((c == last) & (margin > bound), c, -1)  # Z is piece last's


def equilibrium_map(W, m) -> PiecewiseAffineMap:
    """Enumerate all switching patterns of (W, m) into a piecewise map.

    There are 3 patterns per finite ceiling and 2 per unbounded one, and
    each piece's stacks grow with n^2.  A network whose patterns x n^2
    exceed _STACK_LIMIT = 3^11 * 11^2 (the n = 11 all-finite map) is
    refused with ValueError before anything is built; use
    solve_equilibrium_iterative for pointwise queries on it.
    """
    W = np.asarray(W, dtype=float)
    m = np.broadcast_to(np.asarray(m, dtype=float), (W.shape[0],))
    n = W.shape[0]
    if (count := int(_radix(m)[0].prod())) * n * n > _STACK_LIMIT:
        raise ValueError(f"n={n} has {count} switching patterns, whose stacks (patterns x "
                         f"n^2) exceed the enumeration limit {_STACK_LIMIT}; use "
                         "solve_equilibrium_iterative for pointwise equilibria")
    parts = [(map(tuple, sigmas.tolist()), F, f, G[keep], g[keep], keep.sum(axis=1))
             for _, sigmas, F, f, G, g, keep
             in _candidates(W[None], m, np.full((1, n), -0.0), "equilibrium_map")]
    pa = PiecewiseAffineMap._of_stacks(parts, n)
    if len(pa) == count:  # piece k is the pattern of rank k, which the locator reads
        vars(pa)["_net"] = (_as_readonly(W), _as_readonly(m))
    return pa


def _contraction_weights(A):
    """The solution v of (I - A) v = 1 for a nonnegative A when it certifies
    rho(A) < 1: v > 0 (then A v = v - 1 < v) and max(v) < 1e9; else None,
    a singular solve (1 an eigenvalue of A) included."""
    try:
        v = np.linalg.solve(np.eye(A.shape[0]) - A, np.ones(A.shape[0]))
    except np.linalg.LinAlgError:
        return None
    return v if np.all(v > 0) and v.max() < 1e9 else None


def solve_equilibrium_iterative(W, m, d, tol: float = 1e-10):
    """Fixed-point iteration x <- [W x + d]_0^m from x = 0.

    Requires the absolute-weight contraction condition rho(|W|) < 1,
    which holds exactly when alpha = (I - |W|^T)^-1 1 is positive (then
    |W|^T alpha = alpha - 1 < alpha); refuses (NotCertified) when the
    solve is singular, alpha is not positive or max(alpha) >= 1e9.  The
    iteration contracts by r = 1 - 1 / max(alpha) in the alpha-weighted
    l1 norm, which bounds the max norm as alpha >= 1; it stops once that
    error bound drops below tol.  A d that is not n finite numbers, or an
    m entry that is NaN or -inf, raises ValueError before any sweep."""
    W = np.asarray(W, dtype=float)
    m = np.broadcast_to(np.asarray(m, dtype=float), (W.shape[0],))
    d = np.asarray(d, dtype=float)
    if d.shape != m.shape:
        raise ValueError(f"d must have length n = {len(m)}; got an array of shape {d.shape}")
    if not (np.isfinite(d).all() and np.all(m > -np.inf)):
        raise ValueError("d must be finite, and m numbers or +inf")
    alpha = _contraction_weights(np.abs(W).T)
    if alpha is None:
        raise NotCertified("rho(|W|) >= 1: no alpha > 0 solves (I - |W|^T) alpha = 1")
    # weighted change -> error via the geometric tail factor r/(1 - r)
    gain = float(alpha.max()) - 1.0
    x = np.zeros_like(d)
    for _ in range(1_000_000):  # sweeps before it gives up
        x_next = clip_box(W @ x + d, m)
        delta = float(alpha @ np.abs(x_next - x))
        x = x_next
        if delta * max(gain, 1.0) <= tol:
            return x
    raise NotCertified("fixed-point iteration failed to reach tolerance")


def _regions_nonempty(G, g, owner, count) -> np.ndarray:
    """Nonemptiness of count regions {d : G_k d + g_k >= 0}, region k made of
    the rows of G (R, n), g (R,) that owner (R,), nondecreasing, assigns it.

    A row with zero coefficients and a negative offset makes a region
    empty; the other zero rows are dropped, and a region with rows left
    is nonempty when its max-margin LP (see _max_margin_lp) reaches -1e-9.
    The regions left for the LP go _LP_CHUNK to a stacked LP.
    """
    zero = np.all(np.abs(G) < 1e-14, axis=1)
    keep = np.bincount(owner[zero & (g < -1e-12)], minlength=count) == 0
    lp = ~zero & keep[owner]
    G, g, owner = G[lp], g[lp], owner[lp]
    firsts = np.flatnonzero(np.diff(owner, prepend=-1))  # each region's first row
    cuts = [*firsts[::_LP_CHUNK].tolist(), len(owner)]
    for a, b in zip(cuts, cuts[1:]):
        _max_margin_lp(G[a:b], g[a:b], owner[a:b], keep)
    return keep


def linprog(c, A_ub, b_ub, bounds):
    """min c x subject to A_ub x <= b_ub and bounds[:, 0] <= x <= bounds[:, 1]:
    ltnet's one LP entry.  control looks it up here as well, so a patch of
    this global reaches every LP.

    HiGHS solves it through scipy.optimize.milp with no integer variables.
    That is the solve scipy.optimize.linprog(method="highs") runs, on the
    same CSC matrix, so the status (0 optimal, 2 infeasible, ...) and the
    bits of x are linprog's; only linprog's input parsing and result
    post-processing are skipped.  milp would solve a NaN entry of A_ub and
    call NaN in b_ub infeasible, so NaN or +-inf in c, in the entries of
    A_ub (dense or sparse) or in b_ub raise ValueError first, as they do in
    linprog, and so does a NaN bound, which linprog reads as no bound.
    SciPy is imported by the first call.
    """
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp
    entries = A_ub.data if sparse.issparse(A_ub) else A_ub
    if not (np.isfinite(c).all() and np.isfinite(entries).all()
            and np.isfinite(b_ub).all()) or np.isnan(bounds).any():
        raise ValueError("LP data must be finite and bounds not NaN")
    return milp(c, constraints=LinearConstraint(A_ub, -np.inf, b_ub),
                bounds=Bounds(bounds[:, 0], bounds[:, 1]))


def _max_margin_lp(G, g, owner, keep):
    """Set keep[k] for the regions k that owner (sorted) names, by one
    block-diagonal LP: max sum of s_k subject to G_k d_k + g_k >= s_k and
    s_k <= 1.

    Block k holds the rows [-G_k, 1] over the variables (d_k, s_k), every
    entry written, zeros too, as sparse.block_diag of the dense blocks
    writes them, and linprog hands HiGHS that matrix as CSC.  The blocks
    share no variable, so each s_k reaches its own block's maximal margin.
    Each block is feasible and bounded, so a nonzero status is a solver
    failure: the blocks are split in half and solved again, and a single
    block that fails counts as empty.
    """
    from scipy import sparse
    regions, firsts, block = np.unique(owner, return_index=True, return_inverse=True)
    rows, w = len(g), G.shape[1] + 1
    cols = block[:, None] * w + np.arange(w)
    A = sparse.coo_matrix((np.hstack([-G, np.ones((rows, 1))]).ravel(),
                           (np.repeat(np.arange(rows), w), cols.ravel())),
                          shape=(rows, len(regions) * w))
    s_idx = np.arange(1, len(regions) + 1) * w - 1
    c = np.zeros(A.shape[1])
    c[s_idx] = -1.0
    bounds = np.full((A.shape[1], 2), [-np.inf, np.inf])
    bounds[s_idx, 1] = 1.0
    res = linprog(c, A_ub=A, b_ub=g, bounds=bounds)
    if res.status == 0:
        keep[regions] = res.x[s_idx] >= -1e-9
    elif len(regions) == 1:
        keep[regions] = False
    else:
        cut = firsts[len(regions) // 2]
        _max_margin_lp(G[:cut], g[:cut], owner[:cut], keep)
        _max_margin_lp(G[cut:], g[cut:], owner[cut:], keep)


def _box_empty(Gi, b, sigmas, m) -> np.ndarray:
    """Candidates (P,) that an inner row Gi x + b >= 0 rules out before any LP.

    Gi (R, n) and b (R,) are one set of rows for every candidate, or Gi
    (P, R, n) and b (P, R) one set per candidate.  A zero row with b = 0
    never rules a candidate out, so stacks pad with such rows.  The outer
    patterns sigmas (P, n) pin x to a box: x_i = 0 at Zero, m_i at
    Saturated and x_i in [0, m_i] at Linear, unbounded when m_i = inf.
    A row's maximum over the box is b plus its positive coefficients times
    the upper corner and its negative ones times the lower corner, +inf
    when a positive coefficient meets an unbounded node (0 * inf is 0).  A
    candidate is empty when some row's maximum is below
    -1e-6 (1 + |Gi_r|_1 + |b_r|): a max-margin LP that reaches -1e-9 holds
    x within about 1e-9 of the box, so it could keep such a candidate only
    by erring far past its tolerance.  The maxima are elementwise products
    summed over x, so both forms give a row the same bits.
    """
    sat = sigmas == SATURATED
    hi = np.where(sat | (sigmas == LINEAR), m, 0.0)[:, None]
    lo = np.where(sat, m, 0.0)[:, None]
    unbounded = np.isinf(hi)
    top = (np.maximum(Gi, 0.0) * np.where(unbounded, 0.0, hi)
           + np.minimum(Gi, 0.0) * lo).sum(axis=-1) + b
    top[np.any((Gi > 0) & unbounded, axis=-1)] = np.inf
    tol = 1e-6 * (1.0 + np.abs(Gi).sum(axis=-1) + np.abs(b))
    return np.any(top < -tol, axis=-1)


def _samples(m):
    """(_WITNESS_SAMPLES, n) values of Linear nodes under the ceilings m (n,)
    for the witness search: u_ji m_i at a finite m_i, 10^(5 u_ji - 2) at an
    unbounded one.  u_j = frac(1/2 + j a) is the additive recurrence of
    Roberts' R_n sequence, a_i = phi^-i with phi the root of phi^(n+1) =
    phi + 1 in (1, 2), so u_0 is the centre of the unit cube and the rows
    spread evenly over it."""
    n = len(m)
    phi = 2.0
    for _ in range(64):  # a contraction by at most 1 / (n + 1) per step
        phi = (1.0 + phi) ** (1.0 / (n + 1))
    u = (0.5 + np.arange(_WITNESS_SAMPLES)[:, None] * phi ** -np.arange(1.0, n + 1)) % 1.0
    unbounded = np.isinf(m)
    return np.where(unbounded, 10.0 ** (5.0 * u - 2.0), u * np.where(unbounded, 0.0, m))


def _witness(Gi, b, real, W, off, sigmas, m, linear):
    """A point d (P, n) of each candidate's region, NaN where none was found.

    Candidate k has the inner rows Gi[k] x + b[k] >= 0 (Gi (P, R, n), b (P, R),
    real (P, R) false on padding) and the outer equation x = [W[k] x + off[k]
    + d]_0^m under the outer pattern sigmas[k].  Sample j puts x_i at 0 at
    Zero, m_i at Saturated and linear[j, i] at Linear (see _samples), in the
    box of _box_empty; the inner rows at every sample come from one matrix
    product with the shared (S, n) table.  The first sample whose real
    inner rows are all positive gives d = x - (W x + off) - 1 at Zero, + 1
    at Saturated: then z = W x + off + d is -1, x_i or m_i + 1, so the
    pattern holds strictly wherever x_i is inside (0, m_i), and x is the
    candidate's equilibrium at d.  Nothing rests on that: _witnessed checks
    d against the candidate's own rows.
    """
    P, R, n = Gi.shape
    zero, sat, lin = sigmas == ZERO, sigmas == SATURATED, sigmas == LINEAR
    pinned = np.where(sat, m, 0.0)  # x off the Linear nodes
    inner = ((Gi * lin[:, None, :]).reshape(-1, n) @ linear.T).reshape(P, R, len(linear))
    inner += ((Gi @ pinned[..., None])[..., 0] + b)[..., None]  # (P, R, S)
    fits = np.all((inner > 0.0) | ~real[..., None], axis=1)  # (P, S)
    x = np.where(lin, linear[fits.argmax(axis=1)], pinned)
    d = x - (W @ x[..., None])[..., 0] - off + sat - zero
    d[~fits.any(axis=1)] = np.nan
    return d


def _witnessed(G, g, keep, D):
    """Candidates (P,) whose rows G (P, R, n), g (P, R) where keep (P, R) hold
    at the point D[k] (P, n) with a margin: G_r d + g_r > 1e-6 (1 + |G_r| |d|
    + |g_r|), the sum of the terms' magnitudes standing in for the row's
    size at d.  The max-margin LP of such a region reaches at least that
    margin, far above its -1e-9 threshold, so it would keep the candidate.
    A NaN row of D fails every row, and a candidate has at least its outer
    regime rows, so it witnesses nothing."""
    d = D[..., None]
    margin = (G @ d)[..., 0] + g
    tol = 1e-6 * (1.0 + (np.abs(G) @ np.abs(d))[..., 0] + np.abs(g))
    return np.all((margin > tol) | ~keep, axis=1)


def compose_maps(
    inner: PiecewiseAffineMap,
    W1,
    W2,
    W3,
    cbar,
    m,
    certificate=None,
) -> PiecewiseAffineMap:
    """Equilibrium map of x = [W1 x + W2 h(W3 x + cbar) + c']_0^m over c'.

    h is the inner piecewise map.  The composite is again piecewise
    affine: on the inner piece lam the equation reduces to a
    linear-threshold equilibrium with effective weights W1 + W2 F_lam W3
    and offset W2 (F_lam cbar + f_lam), so every pair (lam, outer pattern)
    yields a candidate piece.  Composite regions combine the outer regime
    conditions with the inner region mapped through x, and pieces whose
    region is empty are dropped.  The pairs come from _candidates, each
    owned by its inner piece's (W_eff, offset), inner-piece-major in
    stacks of up to _PATTERN_CHUNK, and each stack takes one box test,
    with each inner piece's rows zero-padded to the longest and
    multiplied in groups of one row count (see _pattern_pieces on which
    products keep their bits).
    A candidate whose inner rows rule out the box that its outer pattern
    pins x to is dropped before any LP (see _box_empty).  Of the others,
    one whose rows hold with a margin at a point d that _witness builds
    from a sample state of that box is kept without an LP (see
    _witnessed); _regions_nonempty decides the rest exactly, with up to
    _LP_CHUNK candidates per block-diagonal LP.

    certificate must witness uniqueness of the composite solution (object
    with a true ``passed`` attribute, e.g. from stability.ges_certificate);
    otherwise UniquenessNotCertified is raised.
    """
    if certificate is None or not getattr(certificate, "passed", False):
        raise UniquenessNotCertified(
            "compose_maps requires a passing contraction certificate for the "
            "composite equation (see stability.ges_certificate)"
        )
    W1 = np.asarray(W1, dtype=float)
    W2 = np.asarray(W2, dtype=float)
    W3 = np.asarray(W3, dtype=float)
    cbar = np.asarray(cbar, dtype=float)
    n = W1.shape[0]
    m = np.broadcast_to(np.asarray(m, dtype=float), (n,))
    Weff = W1 + W2 @ inner.F @ W3
    off = (W2 @ (inner.F @ cbar + inner.f)[..., None])[..., 0]  # constant drive terms
    # inner regions mapped through x: G_lam (W3 x + cbar) + g_lam >= 0, each
    # piece's rows zero-padded to the longest; count (L,) says how many are real
    ends = inner.ends.tolist()
    count = np.diff(inner.ends)
    Gi = np.zeros((len(inner), count.max(initial=0), n))
    Gc, gl = np.zeros((2,) + Gi.shape[:2])
    for k, (a, b) in enumerate(zip(ends, ends[1:])):
        G_lam = inner.G[a:b]
        Gi[k, : b - a], Gc[k, : b - a], gl[k, : b - a] = G_lam @ W3, G_lam @ cbar, inner.g[a:b]
    stacks, undecided = [], [np.zeros(0, dtype=bool)]
    # (G, g, owner) of the rows left for the LPs, owner a candidate's index
    lp_rows = [(np.zeros((0, n)), np.zeros(0), np.zeros(0, dtype=np.intp))]
    n_candidates = 0
    linear = _samples(m)
    for lam, sigmas, F, f, G, g, keep in _candidates(Weff, m, off, "compose_maps"):
        Gl, n_rows = Gi[lam], count[lam]
        GlF, Glf = np.zeros_like(Gl), np.zeros(Gl.shape[:2])
        for r in np.unique(n_rows):  # one row count per product: see _pattern_pieces
            sel = n_rows == r
            GlF[sel, :r] = Gl[sel, :r] @ F[sel]
            Glf[sel, :r] = (Gl[sel, :r] @ f[sel, :, None])[..., 0]
        G = np.concatenate([G, GlF], axis=1)
        g = np.concatenate([g, Glf + Gc[lam] + gl[lam]], axis=1)
        b = Gc[lam] + gl[lam]
        real = np.arange(Gi.shape[1]) < n_rows[:, None]
        keep = np.concatenate([keep, real], axis=1)
        labels = [inner.labels[k] + s for k, s in zip(lam.tolist(), map(tuple, sigmas.tolist()))]
        stacks.append((labels, F, f, G, g, keep))
        undecided.append(~_box_empty(Gl, b, sigmas, m))
        to_lp = undecided[-1].copy()  # the box mask stays as it is
        idx = np.flatnonzero(to_lp)
        D = _witness(Gl[idx], b[idx], real[idx], Weff[lam[idx]], off[lam[idx]], sigmas[idx],
                     m, linear)
        to_lp[idx] = ~_witnessed(G[idx], g[idx], keep[idx], D)
        rows = keep & to_lp[:, None]
        lp_rows.append((G[rows], g[rows], n_candidates + np.nonzero(rows)[0]))
        n_candidates += len(to_lp)

    # a candidate the box test settled has no rows here, which reads nonempty
    G, g, owner = (np.concatenate(col) for col in zip(*lp_rows))
    kept = np.concatenate(undecided) & _regions_nonempty(G, g, owner, n_candidates)
    # the kept pieces get stacks of their own, so the composite does not
    # hold the rejected candidates' rows
    parts, lo = [], 0
    for labels, F, f, G, g, keep in stacks:
        k = kept[lo : lo + len(labels)]
        lo += len(labels)
        rows = keep & k[:, None]
        parts.append((itertools.compress(labels, k), F[k], f[k], G[rows], g[rows],
                      keep.sum(axis=1)[k]))
    pa = PiecewiseAffineMap._of_stacks(parts, n)
    # inner-piece-major is label order unless inner labels repeat or differ in length
    return pa if list(pa.labels) == sorted(pa.labels) else PiecewiseAffineMap(pa.pieces, n, n)


def lipschitz_constant(pa_map: PiecewiseAffineMap) -> float:
    """Global Lipschitz constant: the largest spectral norm over pieces (0 for none)."""
    return float(np.linalg.norm(pa_map.F, 2, axis=(1, 2)).max(initial=0.0))


def max_gain_matrix(pa_map: PiecewiseAffineMap) -> np.ndarray:
    """Elementwise maximum of |F| over pieces (worst-case gain bound; 0 for none)."""
    return np.abs(pa_map.F).max(axis=0, initial=0.0)

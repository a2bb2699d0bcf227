"""Free-fermion (matchgate) quadratic tensors.

A tensor on n fermionic modes with pair count l is specified by a complex
n x (n-2l) embedding matrix, a complex antisymmetric (n-2l) x (n-2l)
matrix, and a scalar prefactor; entries are Pfaffians of submatrices.
Contraction over mode pairs is a Schur complement on the antisymmetric
matrix; the scalar factor of the contraction is the Pfaffian of the
inverted block, with the sign fixed empirically against dense graded
contraction (the identity-law case) and asserted in the tests.

The tensor product, mode permutation and contraction work on tensors with
trivial embedding (l = 0, eps1 the identity) only; any other input raises
`NontrivialEmbedding`.  A network is contracted by absorbing its nodes one
at a time (`net._contract_fermi`), so each Schur complement inverts a
block over the modes joined by that step only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .dense import DenseTensor, TooLargeError
from .errors import InvalidInput, Unsupported
from .scalar import PIVOT_TOL, TOL


class NotAntisymmetric(InvalidInput):
    pass


class SingularBlock(Unsupported):
    pass


class NontrivialEmbedding(Unsupported):
    """An operation that needs l = 0 and eps1 = I was given other data."""


def pfaffian(M: np.ndarray) -> complex:
    """Pfaffian of a complex antisymmetric matrix.

    Parlett-Reid tridiagonalization with partial pivoting, O(n^3); odd
    dimension gives 0, and so does a pivot at most PIVOT_TOL times the
    largest |entry| (at least 1).
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if n == 0:
        return 1.0 + 0j
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M + M.T)) > TOL * scale:
        raise NotAntisymmetric("matrix is not antisymmetric")
    if n % 2 == 1:
        return 0j
    A = M.copy()
    sign = 1.0
    value = 1.0 + 0j
    for k in range(0, n - 1, 2):
        # pivot the largest entry of column k below the diagonal into row k+1
        piv = k + 1 + int(np.argmax(np.abs(A[k + 1:, k])))
        if abs(A[piv, k]) < PIVOT_TOL * scale:
            return 0j
        if piv != k + 1:
            A[[k + 1, piv], :] = A[[piv, k + 1], :]
            A[:, [k + 1, piv]] = A[:, [piv, k + 1]]
            sign = -sign
        value *= A[k, k + 1]
        if k + 2 < n:
            coeffs = A[k + 2:, k] / A[k + 1, k]
            A[k + 2:, :] -= np.outer(coeffs, A[k + 1, :])
            A[:, k + 2:] -= np.outer(A[:, k + 1], coeffs)
    return sign * value


def pfaffian_cofactor(M: np.ndarray) -> complex:
    """Exact cofactor recursion, the independent oracle for small n."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if n % 2 == 1:
        return 0j
    if n == 0:
        return 1.0 + 0j
    total = 0j
    rest = list(range(1, n))
    for idx, j in enumerate(rest):
        others = [x for x in rest if x != j]
        sub = M[np.ix_(others, others)]
        total += (-1) ** idx * M[0, j] * pfaffian_cofactor(sub)
    return total


@dataclass
class FermionTensorData:
    n: int
    l: int
    eps1: np.ndarray  # n x (n - 2l) complex
    q2: np.ndarray  # (n - 2l) x (n - 2l) complex antisymmetric
    q0: complex = 1.0 + 0j

    def __post_init__(self):
        m = self.n - 2 * self.l
        assert m >= 0, "pair count too large"
        self.eps1 = np.asarray(self.eps1, dtype=complex).reshape(self.n, m)
        self.q2 = np.asarray(self.q2, dtype=complex).reshape(m, m)
        scale = max(1.0, float(np.max(np.abs(self.q2))) if m else 1.0)
        if np.max(np.abs(self.q2 + self.q2.T), initial=0.0) > TOL * scale:
            raise NotAntisymmetric("q2 must be antisymmetric")

    @property
    def m(self) -> int:
        return self.n - 2 * self.l

    def has_trivial_embedding(self) -> bool:
        # np.allclose(eps1, I) written out with numpy's default pair,
        # |eps1 - I| <= 1e-8 + 1e-5 |I| per entry (NaN and inf fail), without
        # its per-call dispatch cost: the closeness of a whole matrix to I
        # that numpy-built embeddings are read by, not the zero of one value
        if self.l != 0 or self.eps1.shape != (self.n, self.n):
            return False
        eye = np.eye(self.n)
        return bool((np.abs(self.eps1 - eye) <= 1e-8 + 1e-5 * eye).all())


def _require_trivial(*ts: FermionTensorData) -> None:
    for t in ts:
        if not t.has_trivial_embedding():
            raise NontrivialEmbedding(
                f"fermion tensor with l = {t.l} or eps1 != I is not supported here")


def fermion_entry(t: FermionTensorData, x: Sequence[int]) -> complex:
    """Tensor entry for a length-n bitstring.

    Evaluates q0 * sum over z of det(eps|_{not x, not z}) Pf(q2|_z) as a
    single Pfaffian of the bordered matrix; the alternating column signs
    cancel the pairing signs of the expansion so the sum comes out with
    unit weights.
    """
    x = list(x)
    assert len(x) == t.n
    weight = sum(x)
    if (weight - 2 * t.l) % 2 != 0 or weight < 2 * t.l:
        return 0j
    rows = [i for i in range(t.n) if x[i] == 0]  # rows of eps with (not x)_i = 1
    eps_sub = t.eps1[rows, :].copy()
    for j in range(t.m):
        eps_sub[:, j] *= (-1) ** (j + 1)
    k = len(rows)
    m = t.m
    big = np.zeros((m + k, m + k), dtype=complex)
    big[:m, :m] = t.q2
    big[:m, m:] = -eps_sub.T
    big[m:, :m] = eps_sub
    return t.q0 * pfaffian(big)


def fermion_identity(n: int) -> FermionTensorData:
    """Identity on n modes as a 2n-index tensor with trivial embedding."""
    q2 = np.zeros((2 * n, 2 * n), dtype=complex)
    q2[:n, n:] = np.eye(n)
    q2[n:, :n] = -np.eye(n)
    return FermionTensorData(2 * n, 0, np.eye(2 * n), q2, 1.0)


def beam_splitter(theta: float) -> FermionTensorData:
    """Two-mode hopping evolution exp(-i theta (c0 c1^dag + c1 c0^dag)).

    Mode order (in0, in1, out0, out1).
    """
    c, s = math.cos(theta), math.sin(theta)
    q2 = np.array(
        [
            [0, 0, c, 1j * s],
            [0, 0, 1j * s, c],
            [-c, -1j * s, 0, 0],
            [-1j * s, -c, 0, 0],
        ],
        dtype=complex,
    )
    return FermionTensorData(4, 0, np.eye(4), q2, 1.0)


def fermion_tensor_product(a: FermionTensorData, b: FermionTensorData) -> FermionTensorData:
    _require_trivial(a, b)
    n = a.n + b.n
    q2 = np.zeros((n, n), dtype=complex)
    q2[: a.n, : a.n] = a.q2
    q2[a.n:, a.n:] = b.q2
    return FermionTensorData(n, 0, np.eye(n), q2, a.q0 * b.q0)


def permute_modes(t: FermionTensorData, perm: Sequence[int]) -> FermionTensorData:
    """Reorder modes; for antisymmetric-matrix tensors this is just a
    simultaneous row/column permutation (the Pfaffian sign bookkeeping
    matches the fermionic reordering signs)."""
    _require_trivial(t)
    P = np.asarray(perm, dtype=np.intp)
    q2 = t.q2[np.ix_(P, P)]
    return FermionTensorData(t.n, 0, np.eye(t.n), q2, t.q0)


def fermion_contract(t: FermionTensorData, c: int) -> FermionTensorData:
    """Contract the last two c-blocks of modes pairwise.

    The tensor must have trivial embedding over n + c + c modes; mode
    n + j is contracted with mode n + c + j.  Raises SingularBlock when
    the inverted block is singular (the result would need a nontrivial
    embedding, which is out of scope).  The Pfaffian and the inverse are
    of the 2c x 2c block only; the update of the n other modes is O(n^2 c).
    """
    _require_trivial(t)
    n = t.n - 2 * c
    assert n >= 0
    a = t.q2[:n, :n]
    bc = t.q2[:n, n:]
    eI = t.q2[n:n + c, n + c:] + np.eye(c)
    K = np.empty((2 * c, 2 * c), dtype=complex)
    K[:c, :c] = t.q2[n:n + c, n:n + c]
    K[:c, c:] = eI
    K[c:, :c] = -eI.T
    K[c:, c:] = t.q2[n + c:, n + c:]
    pf = pfaffian(K)
    if abs(pf) < PIVOT_TOL:
        raise SingularBlock("contraction block is singular")
    q2_new = a + bc @ np.linalg.inv(K) @ bc.T
    q2_new = (q2_new - q2_new.T) / 2  # clean numerical asymmetry
    # scalar fixed against dense graded contraction (identity case) and
    # asserted on random instances in the tests
    q0_new = t.q0 * pf * (-1) ** (c * (c - 1) // 2)
    return FermionTensorData(n, 0, np.eye(n), q2_new, q0_new)


def fermion_dense(t: FermionTensorData, outgoing: Optional[List[bool]] = None) -> DenseTensor:
    """All 2^n entries as a graded dense tensor."""
    if t.n > 16:
        raise TooLargeError(f"{t.n} modes is beyond the dense limit")
    dims = (2,) * t.n
    arr = np.zeros(dims, dtype=complex)
    for idx in np.ndindex(*dims):
        arr[idx] = fermion_entry(t, list(idx))
    parities = [[0, 1] for _ in range(t.n)]
    out = outgoing if outgoing is not None else [False] * t.n
    return DenseTensor(dims, arr, parities, out)


def fermion_matrix(t: FermionTensorData, n_in: int) -> np.ndarray:
    """Operator matrix of a tensor with mode order (in-block, out-block).

    Blocking the ingoing half collects (-1)^{C(w,2)} for an input of
    weight w; the outgoing half blocks without signs.
    """
    n_out = t.n - n_in
    d = fermion_dense(t)
    mat = np.zeros((2 ** n_out, 2 ** n_in), dtype=complex)
    for idx in np.ndindex(*d.dims):
        xi = idx[:n_in]
        xo = idx[n_in:]
        w = sum(xi)
        sign = (-1) ** (w * (w - 1) // 2)
        r = int("".join(map(str, xo)), 2)
        cidx = int("".join(map(str, xi)), 2)
        mat[r, cidx] += sign * d.arr[idx]
    return mat

"""Random test-data generators shared across the suite."""

import random
from fractions import Fraction

from qtensor.coeff import Hom2Coeff, HomCoeff, QuadCoeff, hom2_group, hom_group, quad_group
from qtensor.engine import QTensorData, tensor_product
from qtensor.functions import LinearFnData, QuadraticFnData
from qtensor.groups import GroupProduct, R, T, Zk


def random_finite_product(rng: random.Random, max_factors=3, dims=(2, 3, 4, 6)) -> GroupProduct:
    n = rng.randrange(1, max_factors + 1)
    return GroupProduct([Zk(rng.choice(dims)) for _ in range(n)])


def random_quadratic_fn(E: GroupProduct, rng: random.Random) -> QuadraticFnData:
    m = len(E)
    q = QuadraticFnData(E, 0, Fraction(rng.randrange(8), 8))
    for i in range(m):
        g2, g1 = quad_group(E[i], T)
        q.phi1[i] = QuadCoeff(E[i], T, rng.randrange(max(g2.k, 1)), rng.randrange(max(g1.k, 1)))
    for i in range(m):
        for j in range(i + 1, m):
            grp = hom2_group(E[i], E[j], T)
            q.set_cell("phi", i, j, Hom2Coeff(E[i], E[j], T, rng.randrange(max(grp.k, 1))))
    return q


def random_qtensor(G: GroupProduct, rng: random.Random, max_e=None) -> QTensorData:
    dims = (2, 3, 4, 6)
    me = rng.randrange(0, (max_e or len(G) + 1) + 1)
    E = GroupProduct([Zk(rng.choice(dims)) for _ in range(me)])
    cells = []
    for i in range(len(G)):
        row = []
        for j in range(len(E)):
            grp = hom_group(E[j], G[i])
            row.append(HomCoeff(E[j], G[i], rng.randrange(max(grp.k, 1))))
        cells.append(row)
    eps0 = G.element([rng.randrange(f.k) for f in G])
    eps = LinearFnData(E, G, eps0, cells)
    q = random_quadratic_fn(E, rng)
    return QTensorData(G, E, eps, q)


def random_network(rng: random.Random):
    """One network of acceptance criterion 3: the tensor product of 2 to 6
    random tensors, each over one or two of Z2, Z3, Z4, Z6, and the index
    pairs (a, b) of equal groups to contract, or None when the product is
    past the dense oracle's budget (|G| > 4096 or |E| > 3000)."""
    nt = rng.randrange(2, 7)
    tensors = []
    for _ in range(nt):
        nidx = rng.randrange(1, 3)
        G = GroupProduct([Zk(rng.choice([2, 3, 4, 6])) for _ in range(nidx)])
        tensors.append(random_qtensor(G, rng, max_e=2))
    big = tensors[0]
    for t in tensors[1:]:
        big = tensor_product(big, t)
    if big.G.order > 4096 or big.E.order > 3000:
        return None
    idxs = list(range(len(big.G)))
    rng.shuffle(idxs)
    pairs = []
    used = set()
    for a in idxs:
        if a in used:
            continue
        for b in idxs:
            if b in used or b == a:
                continue
            if big.G[a] == big.G[b] and rng.random() < 0.7:
                pairs.append((a, b))
                used.add(a)
                used.add(b)
                break
    return big, pairs

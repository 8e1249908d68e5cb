import random
from fractions import Fraction

import pytest

from weylpath import Parabolic, RootSystemError, RootSystemType, build, verify
from weylpath.rootsystem import _eps_l1, eps_from_root_coords, root_coords_from_eps

ALL_LABELS = (
    [f"A{n}" for n in range(1, 13)]
    + [f"B{n}" for n in range(2, 13)]
    + [f"C{n}" for n in range(2, 13)]
    + [f"D{n}" for n in range(3, 13)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


@pytest.mark.parametrize("label", ALL_LABELS)
def test_positive_root_counts(label):
    rs = build(label)
    assert rs.num_positive_roots == COUNTS[rs.rst.family](rs.rank)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_cartan_matrix_shape(label):
    rs = build(label)
    A, d = rs.cartan, rs.sym
    for i in range(rs.rank):
        assert A[i][i] == 2
        for j in range(rs.rank):
            if i != j:
                assert A[i][j] in (0, -1, -2, -3)
            assert d[i] * A[i][j] == d[j] * A[j][i]
    assert min(d) == 1


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("D", 2), ("E", 9), ("F", 5), ("G", 3), ("H", 2)])
def test_invalid_types_rejected(family, rank):
    with pytest.raises(RootSystemError):
        RootSystemType(family, rank)


@pytest.mark.parametrize("bad", [3.7, True, "3", None])
def test_non_integer_rank_rejected(bad):
    # A float rank must not be truncated, nor True read as rank 1.
    with pytest.raises(RootSystemError):
        build("A", bad)
    with pytest.raises(RootSystemError):
        RootSystemType("A", bad)
    with pytest.raises(RootSystemError):
        verify("A", bad, omitted=2)


@pytest.mark.parametrize("omitted", [1, None], ids=["int", "None"])
def test_parabolic_rejects_non_iterable_omitted(omitted):
    # Not a raw TypeError ("object is not iterable").
    with pytest.raises(RootSystemError, match="plain integers"):
        Parabolic(3, omitted)


def test_root_system_type_rejects_unhashable_family():
    # Not a raw TypeError ("unhashable type").
    with pytest.raises(RootSystemError, match="unknown family"):
        RootSystemType(["E"], 6)


def test_make_and_replace_run_the_root_system_type_checks():
    e6 = RootSystemType("E", 6)
    assert e6._replace(rank=7) == RootSystemType("E", 7)
    assert RootSystemType._make(["D", 5]) == RootSystemType("D", 5)
    with pytest.raises(RootSystemError):
        e6._replace(rank=True)
    with pytest.raises(RootSystemError):
        e6._replace(family="H")
    with pytest.raises(RootSystemError):
        RootSystemType._make(("E", 9))


def test_make_and_replace_run_the_parabolic_checks():
    p = Parabolic.maximal(3, 1)
    assert p._replace(omitted=[2, 3]) == Parabolic(3, frozenset({2, 3}))
    assert type(p._replace(omitted=[2]).omitted) is frozenset
    assert Parabolic._make((4, {4})) == Parabolic.maximal(4, 4)
    with pytest.raises(RootSystemError):
        p._replace(omitted={4})
    with pytest.raises(RootSystemError):
        p._replace(omitted=1)
    with pytest.raises(RootSystemError):
        Parabolic._make((3, {True}))


def test_build_label_parsing():
    assert build("e6").rst == RootSystemType("E", 6)
    assert build("D", 7).rst.label == "D7"
    with pytest.raises(RootSystemError):
        build("E6", 7)


def test_a1_single_root():
    rs = build("A1")
    assert rs.positive_roots == ((1,),)
    assert rs.to_root_basis((1,)) == (Fraction(1, 2),)


def test_e7_node7_coefficients():
    rs = build("E7")
    coeffs = [c[6] for c in rs.positive_roots]
    assert max(coeffs) == 1
    assert sum(1 for x in coeffs if x == 1) == 27


def test_fundamental_pairings_are_kronecker():
    for label in ("A3", "B3", "C3", "D4", "G2", "F4"):
        rs = build(label)
        for d in range(1, rs.rank + 1):
            for j in range(1, rs.rank + 1):
                assert rs.pairing(rs.fundamental_weight(d), rs.simple_root(j)) == int(d == j)


def test_e6_adjoint_weight_pairing():
    # the highest root of E6 is the fundamental weight at node 2; its
    # self-pairing through the coroot is 2
    rs = build("E6")
    theta = max(rs.positive_roots, key=sum)
    assert rs.from_root_basis(theta) == rs.fundamental_weight(2)
    assert rs.pairing(rs.fundamental_weight(2), theta) == 2


def test_c_last_weight_against_long_root():
    from weylpath import epsilon_to_root
    for n in (3, 5, 8):
        rs = build("C", n)
        long_root = epsilon_to_root(rs, tuple([2] + [0] * (n - 1)))
        assert rs.pairing(rs.fundamental_weight(n), long_root) == 1


def test_root_basis_tables():
    assert build("E7").to_root_basis(build("E7").fundamental_weight(1)) == (2, 2, 3, 4, 3, 2, 1)
    assert build("E6").to_root_basis(build("E6").fundamental_weight(4)) == (2, 3, 4, 6, 4, 2)


def test_root_basis_round_trip():
    rng = random.Random(7)
    for label in ("A4", "B5", "C4", "D6", "E6", "F4", "G2"):
        rs = build(label)
        for _ in range(25):
            lam = tuple(rng.randint(-6, 6) for _ in range(rs.rank))
            coords = rs.to_root_basis(lam)
            back = rs.from_root_basis(coords)
            assert tuple(back) == lam


def test_simple_reflection_involutive():
    rng = random.Random(11)
    for label in ("A3", "B4", "D5", "E6"):
        rs = build(label)
        for _ in range(20):
            lam = tuple(rng.randint(-5, 5) for _ in range(rs.rank))
            i = rng.randint(1, rs.rank)
            assert rs.simple_reflection(i, rs.simple_reflection(i, lam)) == lam


def test_simple_reflection_fixes_other_fundamentals():
    rs = build("D5")
    for i in range(1, 6):
        for j in range(1, 6):
            img = rs.simple_reflection(i, rs.fundamental_weight(j))
            if i != j:
                assert img == rs.fundamental_weight(j)
            else:
                assert img != rs.fundamental_weight(j)


def test_e6_reflection_in_root_basis():
    rs = build("E6")
    img = rs.simple_reflection(1, rs.fundamental_weight(1))
    assert rs.to_root_basis(img) == (
        Fraction(1, 3), 1, Fraction(5, 3), 2, Fraction(4, 3), Fraction(2, 3),
    )


def test_integral_weights_pair_integrally():
    rng = random.Random(3)
    for label in ("B4", "C5", "F4", "G2", "E7"):
        rs = build(label)
        for _ in range(15):
            lam = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
            for c in rs.positive_roots:
                assert isinstance(rs.pairing(lam, c), int)


def test_pairing_invariance_under_reflection():
    rng = random.Random(5)
    for label in ("A4", "B3", "C4", "D5", "G2"):
        rs = build(label)
        for _ in range(20):
            lam = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
            c = rs.positive_roots[rng.randrange(rs.num_positive_roots)]
            i = rng.randint(1, rs.rank)
            lhs = rs.pairing(rs.simple_reflection(i, lam), rs.reflect_root(i, c))
            assert lhs == rs.pairing(lam, c)


def test_positive_roots_closed_under_reflections():
    for label in ("A5", "B4", "C4", "D5", "E6", "F4", "G2"):
        rs = build(label)
        for c in rs.positive_roots:
            for i in range(1, rs.rank + 1):
                img = rs.reflect_root(i, c)
                assert rs.is_root(img)
                if c != rs.simple_root(i):
                    assert rs.is_positive_root(img)


BUILD_LABELS = (
    [f"A{n}" for n in range(1, 21)]
    + [f"B{n}" for n in range(2, 21)]
    + [f"C{n}" for n in range(2, 21)]
    + [f"D{n}" for n in range(3, 21)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def _dense_build(rs):
    # The dense construction the build replaced: close the simple roots
    # under every simple reflection that keeps coordinates nonnegative,
    # then compute each root's fundamental coordinates as A @ c.
    n, A, dvec = rs.rank, rs.cartan, rs.sym
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen, frontier = set(simple), list(simple)
    while frontier:
        nxt = []
        for c in frontier:
            pair = [sum(A[i][j] * c[j] for j in range(n)) for i in range(n)]
            for i in range(n):
                if pair[i] == 0:
                    continue
                img = list(c)
                img[i] -= pair[i]
                img = tuple(img)
                if img not in seen and all(x >= 0 for x in img):
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    roots = tuple(sorted(seen, key=lambda c: (sum(c), c)))
    fund, coroots, halfnorm = [], [], []
    for c in roots:
        f = tuple(sum(A[i][j] * c[j] for j in range(n)) for i in range(n))
        hn = sum(ci * di * fi for ci, di, fi in zip(c, dvec, f)) // 2
        fund.append(f)
        coroots.append(tuple(c[j] * dvec[j] // hn for j in range(n)))
        halfnorm.append(hn)
    return roots, tuple(fund), tuple(coroots), tuple(halfnorm)


@pytest.mark.parametrize("label", BUILD_LABELS)
def test_sparse_build_matches_dense_build(label):
    rs = build(label)
    roots, fund, coroots, halfnorm = _dense_build(rs)
    assert rs.positive_roots == roots
    assert rs._fund_coords == fund
    assert rs._coroots == coroots
    assert rs._halfnorm == halfnorm


def test_pairing_rejects_non_roots():
    rs = build("A3")
    with pytest.raises(RootSystemError):
        rs.pairing((1, 0, 0), (1, 0, 1))


def test_pairing_and_root_basis_reject_wrong_lengths():
    rs = build("A3")
    for weight in ((1,), (1, 0), (1, 0, 0, 5, 7), ()):
        with pytest.raises(RootSystemError):
            rs.pairing(weight, (1, 1, 0))
    with pytest.raises(RootSystemError):
        rs.pairing((1, 0, 0, 5, 7), (1, 0, 0))
    for coords in ((1, 0), (1, 0, 0, 0), ()):
        with pytest.raises(RootSystemError):
            rs.from_root_basis(coords)
    assert rs.pairing((1, 0, 0), (1, 1, 0)) == 1
    assert rs.from_root_basis((1, 0, 0)) == (2, -1, 0)


def test_simple_reflection_rejects_wrong_lengths():
    rs = build("A3")
    for weight in ((1,), (1, 0), (1, 0, 0, 5, 7), ()):
        with pytest.raises(RootSystemError):
            rs.simple_reflection(1, weight)
    assert rs.simple_reflection(1, (1, 0, 0)) == (-1, 1, 0)


def test_reflect_root_rejects_wrong_lengths():
    rs = build("A3")
    for root in ((1,), (1, 0), (1, 0, 0, 9), ()):
        with pytest.raises(RootSystemError):
            rs.reflect_root(1, root)
    assert rs.reflect_root(1, (1, 0, 0)) == (-1, 0, 0)


def test_to_root_basis_rejects_wrong_lengths():
    rs = build("A3")
    for weight in ((1,), (1, 0), (1, 0, 0, 4), ()):
        with pytest.raises(RootSystemError):
            rs.to_root_basis(weight)
    assert rs.to_root_basis((2, -1, 0)) == (1, 0, 0)


def test_eps_transforms_round_trip():
    rng = random.Random(13)
    for label in ("A4", "B5", "C5", "D6", "D3"):
        rs = build(label)
        for c in rs.positive_roots:
            eps = eps_from_root_coords(rs.rst, c)
            assert root_coords_from_eps(rs.rst, eps) == tuple(c)
        for _ in range(10):
            c = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            eps = eps_from_root_coords(rs.rst, c)
            assert root_coords_from_eps(rs.rst, eps) == c
    # off the root lattice a C/D half is odd and comes back as a Fraction
    half = Fraction(1, 2)
    for label, eps, want in [("C3", (1, 0, 0), (1, 1, half)),
                             ("D4", (1, 0, 0, 0), (1, 1, half, half))]:
        got = root_coords_from_eps(RootSystemType.parse(label), eps)
        assert got == want and [type(x) for x in got] == [type(x) for x in want]
    for eps in [(1, 0, 0, 0), (1, -1, 0), (1, -1, 0, 0, 0)]:
        with pytest.raises(RootSystemError):
            root_coords_from_eps(RootSystemType.parse("A3"), eps)


def test_eps_round_trip_on_random_lattice_vectors():
    rng = random.Random(4)
    for label in ALL_LABELS:
        rst = RootSystemType.parse(label)
        if rst.family not in "ABCD":
            continue
        for _ in range(40):
            v = tuple(rng.randint(-9, 9) for _ in range(rst.rank))
            assert root_coords_from_eps(rst, eps_from_root_coords(rst, v)) == v, (label, v)


def test_eps_l1_matches_epsilon_coordinates():
    # The search estimator's epsilon L1 norm, read straight from root
    # coordinates without building the epsilon vector.
    rng = random.Random("eps-l1")
    for label in ALL_LABELS:
        rst = RootSystemType.parse(label)
        l1 = _eps_l1(rst.family)
        if rst.family not in "ABCD":
            assert l1 is None, label
            continue
        for _ in range(50):
            v = tuple(rng.randint(-6, 6) for _ in range(rst.rank))
            assert l1(v) == sum(map(abs, eps_from_root_coords(rst, v))), (label, v)

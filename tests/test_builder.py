"""Tests for grid-code construction: generator counts, group structure,
and the coefficient-block decomposition."""

import logging
import re

import numpy as np
import pytest

from subqec import (
    LinearCode,
    PauliGrid,
    ShorCode,
    SubsystemCode,
    gf2,
    hamming_7_4,
    repetition,
)

from references import solve, symplectic_rows


def random_full_rank_code(rng, n_max=8):
    while True:
        n = int(rng.integers(1, n_max + 1))
        k = int(rng.integers(1, n + 1))
        g = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        if gf2.rank(g) == k:
            return LinearCode.from_generator(g)


def random_pauli(rng, code):
    return PauliGrid(
        rng.integers(0, 2, (code.n1, code.n2), dtype=np.uint8),
        rng.integers(0, 2, (code.n1, code.n2), dtype=np.uint8),
    )


# -- parameters and counts ---------------------------------------------------

def test_rep3_grid_parameters(code9):
    assert (code9.n, code9.k, code9.distance) == (9, 1, 3)
    assert code9.gauge_qubits == 4
    assert len(code9.z_stabilizers) == 2
    assert len(code9.x_stabilizers) == 2
    assert len(code9.gauges) == 8
    assert len(code9.logicals) == 2


def test_hamming_grid_parameters(code49):
    assert (code49.n, code49.k, code49.distance) == (49, 16, 3)
    assert code49.gauge_qubits == 9
    assert len(code49.stabilizers) == 24
    assert len(code49.gauges) == 18
    assert len(code49.logicals) == 32


def test_rep2_grid_parameters(rep2):
    code = SubsystemCode(rep2, rep2)
    assert (code.n, code.k, code.distance) == (4, 1, 2)
    assert len(code.stabilizers) == 2
    assert code.gauge_qubits == 1


@pytest.mark.parametrize("n", range(2, 7))
def test_repetition_stabilizer_counts(n):
    rep = repetition(n)
    assert len(SubsystemCode(rep, rep).stabilizers) == 2 * (n - 1)
    assert len(ShorCode(rep, rep).stabilizers) == n * n - 1


def test_shor_counts(shor9, ham):
    assert len(shor9.z_stabilizers) == 6
    assert len(shor9.x_stabilizers) == 2
    assert shor9.k == 1 and shor9.gauge_qubits == 0
    big = ShorCode(ham, ham)
    assert len(big.z_stabilizers) == 21
    assert len(big.x_stabilizers) == 12
    assert big.k == 16


def test_repr_names_the_class(code9, shor9):
    assert repr(code9) == "<SubsystemCode [[9,1,3]] on 3x3>"
    assert repr(shor9) == "<ShorCode [[9,1,3]] on 3x3>"
    full_rate = LinearCode.from_generator(np.eye(2, dtype=np.uint8))
    unknown = SubsystemCode(full_rate, repetition(2))
    assert repr(unknown) == "<SubsystemCode [[4,2,?]] on 2x2>"


def test_asymmetric_pair():
    code = SubsystemCode(repetition(2), repetition(3))
    assert (code.n, code.k) == (6, 1)
    assert len(code.stabilizers) == (2 - 1) * 1 + 1 * (3 - 1)
    shor = ShorCode(repetition(2), repetition(3))
    assert len(shor.stabilizers) == (2 - 1) * 3 + 1 * (3 - 1)


def test_counting_identity_random_pairs():
    rng = np.random.default_rng(41)
    for _ in range(15):
        c1 = random_full_rank_code(rng, n_max=6)
        c2 = random_full_rank_code(rng, n_max=6)
        code = SubsystemCode(c1, c2)  # constructor re-verifies everything
        assert (code.gauge_qubits + len(code.stabilizers) + code.k
                == code.n)


def test_distance_unknown_when_classical_distance_unknown():
    c = LinearCode.from_generator([[1, 1, 0], [0, 1, 1]])
    assert c.d is None
    assert SubsystemCode(c, repetition(2)).distance is None


@pytest.mark.parametrize("cls", [SubsystemCode, ShorCode])
@pytest.mark.parametrize("bad", ["rep:3", None, np.ones((1, 3), np.uint8), 3],
                         ids=["str", "None", "ndarray", "int"])
def test_factor_must_be_a_linear_code(cls, bad, rep3):
    with pytest.raises(ValueError, match="c1 must be a LinearCode"):
        cls(bad, rep3)
    with pytest.raises(ValueError, match="c2 must be a LinearCode"):
        cls(rep3, bad)


# -- group structure ----------------------------------------------------------

def all_pairs_commute(ops_a, ops_b):
    return all(a.commutes(b) for a in ops_a for b in ops_b)


@pytest.mark.parametrize("fixture", ["code9", "code49"])
def test_stabilizers_commute_with_everything(fixture, request):
    code = request.getfixturevalue(fixture)
    everything = code.stabilizers + code.gauges + code.logicals
    assert all_pairs_commute(code.stabilizers, everything)


@pytest.mark.parametrize("fixture", ["code9", "code49"])
def test_gauge_pairs_are_canonical(fixture, request):
    code = request.getfixturevalue(fixture)
    pairs = code.gauge_pairs
    for i, (zg, xg) in enumerate(pairs):
        for j, (zh, xh) in enumerate(pairs):
            assert zg.commutes(xh) == (i != j)
            assert zg.commutes(zh)
            assert xg.commutes(xh)


@pytest.mark.parametrize("fixture", ["code9", "code49"])
def test_logical_pairing(fixture, request):
    code = request.getfixturevalue(fixture)
    k1, k2 = code.c1.k, code.c2.k
    for i in range(k1):
        for j in range(k2):
            for m in range(k1):
                for l in range(k2):
                    same = (i, j) == (m, l)
                    assert code.logical_x[i][j].commutes(
                        code.logical_z[m][l]) != same


def test_gauges_commute_with_logicals(code49):
    assert all_pairs_commute(code49.gauges, code49.logicals)


def test_generators_independent(code9, code49):
    for code in (code9, code49):
        gens = code.stabilizers + code.gauges + code.logicals
        rows = symplectic_rows(gens, code.n)
        assert gf2.rank(rows) == len(gens)


def test_shor_stabilizers_commute(shor9):
    gens = shor9.stabilizers + shor9.logicals
    assert all_pairs_commute(shor9.stabilizers, gens)


@pytest.mark.parametrize("pair", [("rep2", "rep3"), ("rep3", "rep3"),
                                  ("ham", "ham")])
def test_subsystem_stabilizers_inside_shor_group(pair, request):
    """Every reduced stabilizer is a product of Shor-style stabilizers."""
    c1 = request.getfixturevalue(pair[0])
    c2 = request.getfixturevalue(pair[1])
    code = SubsystemCode(c1, c2)
    shor = ShorCode(c1, c2)
    shor_rows = symplectic_rows(shor.stabilizers, shor.n)
    for s in code.stabilizers:
        v = np.concatenate([s.z.ravel(), s.x.ravel()])
        assert solve(shor_rows.T, v) is not None


def test_shor_group_strictly_larger(code9, shor9):
    """The converse fails: column-local checks are not in the reduced group."""
    sub_rows = symplectic_rows(code9.stabilizers, code9.n)
    in_group = [
        solve(sub_rows.T,
                  np.concatenate([s.z.ravel(), s.x.ravel()])) is not None
        for s in shor9.z_stabilizers
    ]
    assert not all(in_group)


def replace_last_z_stabilizer(rep3):
    code = SubsystemCode(rep3, rep3)
    bits = code.z_stabilizer_bits.copy()
    bits[-1] = PauliGrid.single(3, 3, 0, 0, "Z").z
    code.z_stabilizer_bits = bits
    return code


def duplicate_z_stabilizer(rep3):
    code = SubsystemCode(rep3, rep3)
    bits = code.z_stabilizer_bits
    code.z_stabilizer_bits = np.repeat(bits[:1], len(bits), axis=0)
    return code


def reverse_x_gauges(rep3):
    code = SubsystemCode(rep3, rep3)
    code.x_gauge_bits = code.x_gauge_bits[::-1]
    return code


def logical_x_hits_gauge(rep3):
    """Logical X times an X gauge anticommutes with that gauge's Z partner."""
    code = SubsystemCode(rep3, rep3)
    code.logical_x_bits = code.logical_x_bits ^ code.x_gauge_bits[:1]
    return code


def shor_stabilizer_is_logical(rep3):
    code = ShorCode(rep3, rep3)
    code.x_stabilizer_bits = np.concatenate(
        [code.x_stabilizer_bits[:-1], code.logical_x_bits[:1]])
    return code


@pytest.mark.parametrize("corrupt, message", [
    (replace_last_z_stabilizer, None),
    (duplicate_z_stabilizer, "dependent"),
    (reverse_x_gauges, "commutation"),
    (logical_x_hits_gauge, "commutation"),
    (shor_stabilizer_is_logical, "commutation"),
], ids=["replaced_stabilizer", "duplicated_stabilizer", "reversed_x_gauges",
        "logical_x_hits_gauge", "shor_stabilizer_is_logical"])
def test_verification_catches_corruption(rep3, corrupt, message):
    code = corrupt(rep3)
    with pytest.raises(ValueError, match=message):
        code._verify()


@pytest.mark.parametrize("cls", [SubsystemCode, ShorCode])
def test_verification_catches_a_broken_factor(cls, rep3):
    """A factor whose complements are not dual to its own rows fails
    D E^T = I, and the Gram check words the error.  The factor is
    corrupted before any grid reads it, and the False it caches fails
    every grid built on it."""
    broken = repetition(3)
    object.__setattr__(broken, "check_complement",
                       np.zeros_like(broken.check_complement))
    for c1, c2 in ((broken, rep3), (rep3, broken), (broken, broken)):
        with pytest.raises(ValueError, match="internal error"):
            cls(c1, c2)


def test_shor_verify_accepts_intact_code(rep3):
    ShorCode(rep3, rep3)._verify()


def test_construction_wraps_stacks_and_verifies_one_block(monkeypatch):
    """No PauliGrid is built, not even on first access of the lists; the
    check is one D E^T product per distinct factor on the first grid and
    none on a later grid over the same factors, and nothing is ranked.
    The factors are built here, as the shared fixtures may have been
    checked already."""
    rep3, ham = repetition(3), hamming_7_4()
    inits, products, ranked = [], [], []
    init, mat_mul, rank = PauliGrid.__init__, gf2._mat_mul, gf2.rank

    def counting_init(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    def counting_mat_mul(a, b):
        products.append((a.shape, b.shape))
        return mat_mul(a, b)

    def counting_rank(m):
        ranked.append(np.asarray(m).copy())
        return rank(m)

    monkeypatch.setattr(PauliGrid, "__init__", counting_init)
    # The unchecked product, which gf2.mat_mul also ends in.
    monkeypatch.setattr(gf2, "_mat_mul", counting_mat_mul)
    monkeypatch.setattr(gf2, "rank", counting_rank)
    for cls, c1, c2, checked in ((SubsystemCode, rep3, ham, (rep3, ham)),
                                 (ShorCode, ham, rep3, ()),
                                 (SubsystemCode, ham, ham, ())):
        products.clear()
        ranked.clear()
        code = cls(c1, c2)
        assert products == [((c.n, c.n), (c.n, c.n)) for c in checked]
        assert ranked == []
        code.stabilizers, code.gauge_pairs, code.logicals
    assert inits == []
    rep4 = repetition(4)
    products.clear()
    SubsystemCode(rep4, rep4)
    assert products == [((4, 4), (4, 4))]


def test_verify_logs_at_debug_only(rep3, caplog):
    SubsystemCode(rep3, rep3)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="subqec"):
        SubsystemCode(rep3, repetition(4))
        ShorCode(rep3, rep3)
    assert [r.name for r in caplog.records] == ["subqec.builder"] * 2
    patterns = (r"verified <SubsystemCode \[\[12,1,3\]\] on 3x4>: 2 Z \+ 3 X "
                r"stabilizers, 6 gauge pairs, 1 logical pairs in \d+\.\d\d ms",
                r"verified <ShorCode \[\[9,1,3\]\] on 3x3>: 6 Z \+ 2 X "
                r"stabilizers, 0 gauge pairs, 1 logical pairs in \d+\.\d\d ms")
    for record, pattern in zip(caplog.records, patterns):
        assert re.fullmatch(pattern, record.getMessage())
        # Attributed to the verification, not to the logging helper.
        assert (record.levelno, record.funcName, record.filename) == (
            logging.DEBUG, "_verify", "builder.py")


# -- decomposition -------------------------------------------------------------

def test_stabilizer_decomposes_to_unit_block(code9):
    dec = code9.decompose(code9.z_stabilizers[0])
    assert dec.z_stab.tolist() == [[1], [0]]
    assert not (dec.z_gauge.any() or dec.z_logical.any() or dec.z_detect.any())
    assert not (dec.x_stab.any() or dec.x_gauge.any() or dec.x_logical.any()
                or dec.x_detect.any())


def test_logical_decomposes_to_unit_block(code49):
    dec = code49.decompose(code49.logical_x[2][1])
    expect = np.zeros((4, 4), np.uint8)
    expect[2, 1] = 1
    assert np.array_equal(dec.x_logical, expect)
    assert not (dec.x_stab.any() or dec.x_gauge.any() or dec.x_detect.any())


def test_gauge_decomposes_to_gauge_blocks(code9):
    for zg in code9.z_gauges:
        dec = code9.decompose(zg)
        assert dec.z_gauge.any()
        assert dec.is_gauge()


@pytest.mark.parametrize("fixture", ["code9", "code49"])
def test_decompose_recompose_round_trip(fixture, request):
    code = request.getfixturevalue(fixture)
    rng = np.random.default_rng(42)
    for _ in range(100):
        op = random_pauli(rng, code)
        assert code.recompose(code.decompose(op)) == op


def test_recompose_decompose_round_trip(code9):
    """The opposite direction: coefficients -> operator -> coefficients."""
    from subqec import PauliDecomposition
    rng = np.random.default_rng(43)
    for _ in range(50):
        blocks = PauliDecomposition(
            z_stab=rng.integers(0, 2, (2, 1), dtype=np.uint8),
            z_gauge=rng.integers(0, 2, (2, 2), dtype=np.uint8),
            z_logical=rng.integers(0, 2, (1, 1), dtype=np.uint8),
            z_detect=rng.integers(0, 2, (1, 2), dtype=np.uint8),
            x_stab=rng.integers(0, 2, (1, 2), dtype=np.uint8),
            x_gauge=rng.integers(0, 2, (2, 2), dtype=np.uint8),
            x_logical=rng.integers(0, 2, (1, 1), dtype=np.uint8),
            x_detect=rng.integers(0, 2, (2, 1), dtype=np.uint8),
            phase=int(rng.integers(0, 4)),
        )
        dec = code9.decompose(code9.recompose(blocks))
        for field in ("z_stab", "z_gauge", "z_logical", "z_detect",
                      "x_stab", "x_gauge", "x_logical", "x_detect"):
            assert np.array_equal(getattr(dec, field), getattr(blocks, field))


def test_gauge_membership(code9):
    rng = np.random.default_rng(44)
    assert code9.contains_gauge(PauliGrid.identity(3, 3))
    for s in code9.stabilizers:
        assert code9.contains_gauge(s)
    for g in code9.gauges:
        assert code9.contains_gauge(g)
    for l in code9.logicals:
        assert not code9.contains_gauge(l)
    # Products of gauge generators stay in the gauge group.
    for _ in range(20):
        picks = [g for g in code9.gauges if rng.integers(0, 2)]
        prod = PauliGrid.identity(3, 3)
        for g in picks:
            prod = prod * g
        assert code9.contains_gauge(prod)


@pytest.mark.parametrize("cls", [SubsystemCode, ShorCode])
@pytest.mark.parametrize("pair", [("rep3", "rep3"), ("rep3", "ham"),
                                  ("ham", "rep3"), ("rep2", "rep4")])
def test_gauge_membership_is_span_membership(cls, pair):
    # The gauge group is the span of the stabilizers and gauges; a ShorCode
    # has no gauges, so its group is its stabilizers alone, and the
    # subsystem code's X gauges anticommute with its column checks.
    factors = {"rep2": repetition(2), "rep3": repetition(3),
               "rep4": repetition(4), "ham": hamming_7_4()}
    sub = SubsystemCode(*(factors[c] for c in pair))
    code = cls(sub.c1, sub.c2)
    shape = (code.n1, code.n2)
    span = symplectic_rows(code.stabilizers + code.gauges, code.n).T
    rng = np.random.default_rng(21)
    # Products of the subsystem code's stabilizers and gauges hold every
    # group element of both classes, and a quarter of them take a logical
    # too; random Paulis mostly lie outside.
    products = []
    for _ in range(150):
        prod = PauliGrid.identity(*shape)
        for g in sub.stabilizers + sub.gauges:
            if rng.integers(2):
                prod = prod * g
        if rng.integers(4) == 0:
            prod = prod * sub.logicals[rng.integers(len(sub.logicals))]
        products.append(prod)
    randoms = [PauliGrid(rng.integers(0, 2, shape, dtype=np.uint8),
                         rng.integers(0, 2, shape, dtype=np.uint8))
               for _ in range(150)]
    members = 0
    for op in products + randoms:
        want = solve(span, symplectic_rows([op], code.n)[0]) is not None
        assert code.contains_gauge(op) == want, op
        members += want
    assert 0 < members < len(products) + len(randoms)


def test_decompose_shape_check(code9):
    with pytest.raises(ValueError):
        code9.decompose(PauliGrid.identity(3, 4))

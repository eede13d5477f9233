"""Tests for syndrome extraction, two-stage recovery, and distance search."""

import numpy as np
import pytest

from subqec import (
    LinearCode,
    PauliGrid,
    ShorCode,
    SubsystemCode,
    builtin,
    decode_bitflip,
    decode_phaseflip,
    distance_bruteforce,
    extract_syndrome,
    recover,
    repetition,
)
from subqec import recovery

from references import distance_by_three_paulis, random_pauli


def syndrome_by_anticommutation(code, err):
    """Oracle: measure each stabilizer generator by (anti)commutation."""
    s_z = np.array([int(not g.commutes(err)) for g in code.z_stabilizers],
                   np.uint8)
    s_x = np.array([int(not g.commutes(err)) for g in code.x_stabilizers],
                   np.uint8)
    return s_z, s_x


# -- syndrome extraction -------------------------------------------------------

def test_identity_has_zero_syndrome(code9):
    syn = extract_syndrome(code9, PauliGrid.identity(3, 3))
    assert not syn.any()


def test_gauge_generators_have_zero_syndrome(code9, code49):
    for code in (code9, code49):
        for g in code.gauges:
            assert not extract_syndrome(code, g).any()


def test_logicals_have_zero_syndrome(code49):
    for l in code49.logicals:
        assert not extract_syndrome(code49, l).any()


def test_single_x_syndrome_is_column_check(code9):
    # On the repetition grid a single X at (i, j) trips the Z checks that
    # touch row i, independent of j: the syndrome is column i of the check
    # matrix.
    p1 = code9.c1.check
    for i in range(3):
        for j in range(3):
            err = PauliGrid.single(3, 3, i, j, "X")
            syn = extract_syndrome(code9, err)
            assert np.array_equal(syn.s_z[:, 0], p1[:, i])
            assert not syn.s_x.any()


@pytest.mark.parametrize("fixture", ["code9", "code49"])
def test_syndrome_matches_anticommutation_oracle(fixture, request):
    code = request.getfixturevalue(fixture)
    rng = np.random.default_rng(51)
    for _ in range(30):
        err = random_pauli(rng, code)
        syn = extract_syndrome(code, err)
        s_z, s_x = syndrome_by_anticommutation(code, err)
        assert np.array_equal(syn.s_z.reshape(-1), s_z)
        assert np.array_equal(syn.s_x.reshape(-1), s_x)


def test_syndrome_is_linear(code9):
    rng = np.random.default_rng(52)
    for _ in range(30):
        a, b = random_pauli(rng, code9), random_pauli(rng, code9)
        sa = extract_syndrome(code9, a)
        sb = extract_syndrome(code9, b)
        sab = extract_syndrome(code9, a * b)
        assert np.array_equal(sab.s_z, sa.s_z ^ sb.s_z)
        assert np.array_equal(sab.s_x, sa.s_x ^ sb.s_x)


def test_syndrome_shape_check(code9):
    with pytest.raises(ValueError):
        extract_syndrome(code9, PauliGrid.identity(3, 4))


# -- stage decoders -----------------------------------------------------------

def test_zero_syndrome_decodes_to_identity(code9):
    assert decode_bitflip(code9, np.zeros((2, 1), np.uint8)).weight() == 0
    assert decode_phaseflip(code9, np.zeros((1, 2), np.uint8)).weight() == 0


def test_bitflip_correction_matches_syndrome(code9, code49):
    rng = np.random.default_rng(53)
    for code in (code9, code49):
        for _ in range(20):
            err = PauliGrid(np.zeros((code.n1, code.n2), np.uint8),
                            rng.integers(0, 2, (code.n1, code.n2),
                                         dtype=np.uint8))
            syn = extract_syndrome(code, err)
            corr = decode_bitflip(code, syn.s_z)
            assert np.array_equal(extract_syndrome(code, corr).s_z, syn.s_z)
            assert not corr.z.any()


def test_phaseflip_correction_matches_syndrome(code9, code49):
    rng = np.random.default_rng(54)
    for code in (code9, code49):
        for _ in range(20):
            err = PauliGrid(rng.integers(0, 2, (code.n1, code.n2),
                                         dtype=np.uint8),
                            np.zeros((code.n1, code.n2), np.uint8))
            syn = extract_syndrome(code, err)
            corr = decode_phaseflip(code, syn.s_x)
            assert np.array_equal(extract_syndrome(code, corr).s_x, syn.s_x)
            assert not corr.x.any()


def test_stage_decoders_mirror_each_other():
    """Phase decoding on (c1, c2) is bit decoding on (c2, c1), transposed."""
    c1, c2 = repetition(2), repetition(3)
    code = SubsystemCode(c1, c2)
    flipped = SubsystemCode(c2, c1)
    rng = np.random.default_rng(55)
    for _ in range(20):
        s_x = rng.integers(0, 2, (c1.k, c2.n - c2.k), dtype=np.uint8)
        a = decode_phaseflip(code, s_x)
        b = decode_bitflip(flipped, s_x.T)
        assert b == a.mirror()


def test_decoder_shape_checks(code9):
    # s_x is checked as given, before the stage decodes its transpose.
    with pytest.raises(ValueError,
                       match=r"^s_z shape \(1, 2\) is not \(2,1\)$"):
        decode_bitflip(code9, np.zeros((1, 2), np.uint8))
    with pytest.raises(ValueError,
                       match=r"^s_x shape \(2, 1\) is not \(1,2\)$"):
        decode_phaseflip(code9, np.zeros((2, 1), np.uint8))


def test_decoders_reject_non_binary_syndromes(code9):
    # A cast to uint8 let [[2], [0]] through to a correction, and [[0, 3]]
    # raised IndexError.
    with pytest.raises(ValueError, match="0 or 1"):
        decode_bitflip(code9, [[2], [0]])
    with pytest.raises(ValueError, match="0 or 1"):
        decode_phaseflip(code9, [[0, 3]])
    assert decode_bitflip(code9, [[True], [False]]) == decode_bitflip(
        code9, np.array([[1], [0]], np.uint8))
    assert decode_phaseflip(code9, [[False, True]]) == decode_phaseflip(
        code9, np.array([[0, 1]], np.uint8))


# -- full recovery --------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["code9", "code49"])
def test_recover_every_single_site_error(fixture, request):
    code = request.getfixturevalue(fixture)
    for i in range(code.n1):
        for j in range(code.n2):
            for kind in "XYZ":
                err = PauliGrid.single(code.n1, code.n2, i, j, kind)
                out = recover(code, err)
                assert out.logical_ok, (i, j, kind)
                # The residual must be a gauge-group element.
                assert code.contains_gauge(err * out.correction)


def test_recover_identity(code9):
    out = recover(code9, PauliGrid.identity(3, 3))
    assert out.logical_ok and out.correction.weight() == 0


def test_logical_error_is_flagged(code9):
    lx = code9.logical_x[0][0]
    out = recover(code9, lx)
    assert not extract_syndrome(code9, lx).any()
    assert not out.logical_ok
    assert out.residual_x.tolist() == [[1]]
    assert not out.residual_z.any()
    lz = code9.logical_z[0][0]
    out = recover(code9, lz)
    assert not out.logical_ok
    assert out.residual_z.tolist() == [[1]]


def test_gauge_error_recovers_trivially(code9):
    for g in code9.gauges:
        out = recover(code9, g)
        assert out.logical_ok
        assert out.correction.weight() == 0


def test_recovery_is_gauge_invariant(code9):
    rng = np.random.default_rng(56)
    for _ in range(30):
        err = random_pauli(rng, code9)
        gauge = code9.gauges[int(rng.integers(0, len(code9.gauges)))]
        a = recover(code9, err)
        b = recover(code9, err * gauge)
        assert a.correction == b.correction
        assert a.logical_ok == b.logical_ok
        assert np.array_equal(a.residual_z, b.residual_z)
        assert np.array_equal(a.residual_x, b.residual_x)


def test_correction_matches_syndrome(code49):
    rng = np.random.default_rng(57)
    for _ in range(30):
        err = random_pauli(rng, code49)
        syn = extract_syndrome(code49, err)
        out = recover(code49, err)
        cs = extract_syndrome(code49, out.correction)
        assert np.array_equal(cs.s_z, syn.s_z)
        assert np.array_equal(cs.s_x, syn.s_x)
        # Residual classification matches gauge membership.
        assert out.logical_ok == code49.contains_gauge(err * out.correction)


def test_correctable_bitflip_family_exhaustive(code9):
    """Single bit-flip column patterns with arbitrary row masks all recover:
    the X part factors as e1 outer mask, and rep3 corrects any single e1."""
    for e1_pos in range(4):  # 0 = no error, 1..3 = the single set bit
        for mask_bits in range(1 << 9):
            mask = ((mask_bits >> np.arange(9)) & 1).astype(np.uint8)
            mask = mask.reshape(3, 3)
            b = np.zeros((3, 3), np.uint8)
            if e1_pos:
                b[e1_pos - 1] = mask[e1_pos - 1]
            out = recover(code9, PauliGrid(np.zeros((3, 3), np.uint8), b))
            assert out.logical_ok


def test_correctable_family_sampled_hamming(code49):
    rng = np.random.default_rng(58)
    n1, n2 = 7, 7
    for _ in range(200):
        e1 = np.zeros(n1, np.uint8)
        if rng.integers(0, 2):
            e1[rng.integers(0, n1)] = 1
        mask = rng.integers(0, 2, (n1, n2), dtype=np.uint8)
        b = (e1[:, None] * mask).astype(np.uint8)
        assert recover(code49, PauliGrid(np.zeros((n1, n2), np.uint8),
                                         b)).logical_ok
        # And the transposed statement for phase flips.
        e2 = np.zeros(n2, np.uint8)
        if rng.integers(0, 2):
            e2[rng.integers(0, n2)] = 1
        a = (mask * e2[None, :]).astype(np.uint8)
        assert recover(code49, PauliGrid(a, np.zeros((n1, n2),
                                                     np.uint8))).logical_ok


def test_recovery_refuses_shor_codes(shor9):
    # A Shor code checks P1 x column by column, while every stage reads the
    # subsystem syndrome P1 x G2^T: each entry point refuses it up front.
    err = PauliGrid.single(3, 3, 0, 0, "X") * PauliGrid.single(3, 3, 1, 1, "X")
    for call in (lambda: recover(shor9, err),
                 lambda: extract_syndrome(shor9, err),
                 lambda: decode_bitflip(shor9, np.zeros((2, 1), np.uint8)),
                 lambda: decode_phaseflip(shor9, np.zeros((1, 2), np.uint8))):
        with pytest.raises(ValueError, match="ShorCode"):
            call()


# -- distance -------------------------------------------------------------------

def test_distance_rep2_grid(rep2):
    assert distance_bruteforce(SubsystemCode(rep2, rep2), 3) == 2


def test_distance_rep3_grid(code9):
    assert distance_bruteforce(code9, 4) == 3


def test_distance_hamming_grid(code49):
    assert distance_bruteforce(code49, 3) == 3


def test_distance_none_below_true_distance(code9):
    assert distance_bruteforce(code9, 2) is None


def test_distance_asymmetric_grid():
    code = SubsystemCode(repetition(2), repetition(3))
    assert distance_bruteforce(code, 3) == 2


def test_distance_guard_triggers(code49):
    with pytest.raises(ValueError):
        distance_bruteforce(code49, 9)


def test_distance_guard_counts_one_operator_per_type_and_subset(
        code9, monkeypatch):
    # rep3^2 has 3 distinct site signatures of each type, so the search
    # visits 2 * (C(3, 1) + C(3, 2)) = 12 candidates: an X-type and a
    # Z-type operator on each set of at most 2 signatures.  The guard is
    # read at call time.
    monkeypatch.setattr(recovery, "DISTANCE_CANDIDATE_GUARD", 11)
    with pytest.raises(ValueError, match=r"^12 candidates exceed the guard "
                                         r"of 11; lower w_max$"):
        distance_bruteforce(code9, 2)
    monkeypatch.setattr(recovery, "DISTANCE_CANDIDATE_GUARD", 12)
    assert distance_bruteforce(code9, 2) is None


def test_distance_guard_counts_signatures_not_sites():
    # rep7^2 has 49 sites but 7 signatures of each type: 2 * (2**7 - 1) =
    # 254 candidates at w <= 7, where the sites gave about 2.0e8.
    assert distance_bruteforce(SubsystemCode(repetition(7), repetition(7)),
                               7) == 7


def test_distance_bound_above_n_is_read_as_n():
    # No operator is heavier than n, so a huge bound costs no more than n:
    # the guard's sum and the search stop there.
    no_logical = SubsystemCode(repetition(2), LinearCode.from_parity([[1]]))
    assert no_logical.k == 0
    assert distance_bruteforce(no_logical, 10 ** 12) is None


@pytest.mark.parametrize("cls", [SubsystemCode, ShorCode])
@pytest.mark.parametrize("spec1,spec2,d", [
    ("rep:5", "hamming:7-4", 3), ("hamming:7-4", "rep:5", 3),
    ("rep:2", "rep:4", 2)])
def test_distance_on_grids_whose_types_differ(cls, spec1, spec2, d):
    """Grids whose X-type and Z-type distances differ (rep5 x hamming has
    5 and 3) give the three-Pauli search's answer at every bound."""
    code = cls(builtin(spec1), builtin(spec2))
    for w_max in range(1, 5):
        assert distance_bruteforce(code, w_max) == distance_by_three_paulis(
            code, w_max)
    assert distance_bruteforce(code, 4) == d


@pytest.mark.parametrize("n", [5, 6])
def test_distance_repetition_grids(n):
    # rep6^2 at w <= 6 is 2 * sum_w C(6, w) = 126 candidates over its 6
    # signatures of each type; with X, Z and Y at every one of its 36 sites
    # it would be 1.5e9.
    code = SubsystemCode(repetition(n), repetition(n))
    assert distance_bruteforce(code, n) == n
    assert distance_bruteforce(code, n - 1) is None
    if n == 5:
        assert distance_by_three_paulis(code, n) == n


def test_distance_rejects_bad_bound(code9):
    with pytest.raises(ValueError):
        distance_bruteforce(code9, 0)


def test_distance_finds_logical_weight(code9):
    # Oracle cross-check: the weight-3 logical X exists explicitly.
    assert code9.logical_x[0][0].weight() == 3
    assert distance_bruteforce(code9, 4) == 3


@pytest.mark.parametrize("w_max", [2.5, 3.0, True, "3"])
def test_distance_rejects_non_integer_bound(code9, w_max):
    # 2.5 and 3.0 used to raise TypeError from range(); True ran as 1.
    with pytest.raises(ValueError, match="w_max must be an integer"):
        distance_bruteforce(code9, w_max)
    assert distance_bruteforce(code9, np.int64(4)) == 3


@pytest.mark.parametrize("w_max", [0, -3])
def test_distance_rejects_bound_below_one(code9, w_max):
    with pytest.raises(ValueError, match="^w_max must be >= 1$"):
        distance_bruteforce(code9, w_max)


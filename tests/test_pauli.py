"""Tests for grid Pauli operators and their phase bookkeeping."""

import numpy as np
import pytest

from subqec import PauliGrid


def random_op(rng, rows=3, cols=3):
    return PauliGrid(
        rng.integers(0, 2, (rows, cols), dtype=np.uint8),
        rng.integers(0, 2, (rows, cols), dtype=np.uint8),
        int(rng.integers(0, 4)),
    )


def test_identity_weight_zero():
    assert PauliGrid.identity(3, 4).weight() == 0


def test_single_site_weights():
    for kind in "XYZ":
        assert PauliGrid.single(2, 2, 0, 1, kind).weight() == 1


@pytest.mark.parametrize("kind", ["I", "XZ", "", "x", 1])
def test_single_rejects_other_kinds(kind):
    with pytest.raises(ValueError,
                       match=r"^kind must be X, Y or Z, not "):
        PauliGrid.single(2, 2, 0, 1, kind)


@pytest.mark.parametrize("bad", [[[2, 0]], [[0.5, 0]], [[-1, 0]], [[256, 0]]])
def test_entries_outside_0_1_are_rejected_not_wrapped(bad):
    with pytest.raises(ValueError, match="0 or 1"):
        PauliGrid(bad, [[0, 0]])
    with pytest.raises(ValueError, match="0 or 1"):
        PauliGrid([[0, 0]], bad)


def test_shape_checks_keep_their_message():
    with pytest.raises(ValueError, match=r"^z/x shapes \(2,\) and \(2,\) "
                                         r"must match$"):
        PauliGrid([0, 1], [1, 0])
    with pytest.raises(ValueError, match=r"^z/x shapes \(1, 2\) and "
                                         r"\(2, 1\) must match$"):
        PauliGrid([[0, 1]], [[1], [0]])


def test_given_arrays_stay_writable_and_unshared():
    z = np.array([[1, 0]], np.uint8)
    x = np.array([[True, False]])
    op = PauliGrid(z, x)
    assert z.flags.writeable and x.flags.writeable
    z[0, 0] = 0
    x[0, 0] = False
    assert op.to_rows() == ["YI"]
    assert not (op.z.flags.writeable or op.x.flags.writeable)


@pytest.mark.parametrize("site", [(True, 0), (0, True), (0.5, 0), (1.0, 0)])
def test_single_site_must_be_integers(site):
    # True marked the whole of row 0, and a float raised IndexError.
    with pytest.raises(ValueError, match="must be an integer"):
        PauliGrid.single(2, 2, *site, "X")
    op = PauliGrid.single(2, 2, np.int64(1), 0, "X")
    assert op.to_rows() == ["II", "XI"]


def test_single_site_outside_the_grid_is_refused():
    with pytest.raises(ValueError, match=r"site \(3,0\) outside 3x3 grid"):
        PauliGrid.single(3, 3, 3, 0, "X")


@pytest.mark.parametrize("phase", [2.5, True, "3"])
def test_phase_must_be_an_integer(phase):
    # These were truncated or parsed: 2.5 gave 2, True 1 and "3" 3.
    with pytest.raises(ValueError, match="phase must be an integer"):
        PauliGrid([[0]], [[0]], phase)


@pytest.mark.parametrize("phase", [np.int64(7), -1])
def test_phase_is_taken_modulo_four(phase):
    op = PauliGrid([[0]], [[0]], phase)
    assert op.phase == 3 and type(op.phase) is int


def test_weight_counts_sites_not_parts():
    op = PauliGrid([[1, 0], [0, 0]], [[1, 0], [0, 1]])
    assert op.weight() == 2  # Y at (0,0) and X at (1,1)


def test_anticommute_same_site():
    x = PauliGrid.single(2, 2, 0, 0, "X")
    z = PauliGrid.single(2, 2, 0, 0, "Z")
    assert not x.commutes(z)


def test_commute_disjoint_sites():
    x = PauliGrid.single(2, 2, 0, 0, "X")
    z = PauliGrid.single(2, 2, 1, 1, "Z")
    assert x.commutes(z)


def test_everything_commutes_with_itself():
    rng = np.random.default_rng(31)
    for _ in range(20):
        op = random_op(rng)
        assert op.commutes(op)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        PauliGrid.identity(2, 2).commutes(PauliGrid.identity(2, 3))
    with pytest.raises(ValueError):
        PauliGrid.identity(2, 2) * PauliGrid.identity(3, 2)


def test_multiplying_by_a_non_pauli_is_a_type_error():
    # It raised AttributeError: 'int' object has no attribute 'shape'.
    with pytest.raises(TypeError):
        PauliGrid.identity(2, 2) * 3
    with pytest.raises(TypeError):
        3 * PauliGrid.identity(2, 2)


def test_commutes_refuses_a_non_pauli_and_same_pauli_is_false():
    # Both raised AttributeError: 'int' object has no attribute 'shape'.
    op = PauliGrid.identity(2, 2)
    with pytest.raises(TypeError, match="takes a PauliGrid, not 'int'"):
        op.commutes(3)
    assert op.same_pauli(3) is False
    assert op.same_pauli(None) is False


def test_equality_hash_and_repr():
    op = PauliGrid.single(1, 2, 0, 1, "Y")
    assert (op == 3) is False
    twin = PauliGrid([[0, 1]], [[0, 1]], 3)
    assert op == twin and hash(op) == hash(twin)
    assert repr(op) == "<PauliGrid i^3 IY>"


def test_multiply_by_identity():
    rng = np.random.default_rng(32)
    ident = PauliGrid.identity(3, 3)
    for _ in range(10):
        op = random_op(rng)
        assert op * ident == op
        assert ident * op == op


def test_xz_phase_ordering():
    # XZ written in ZX normal form picks up i^2; ZX is already normal.
    x = PauliGrid.single(1, 1, 0, 0, "X")
    z = PauliGrid.single(1, 1, 0, 0, "Z")
    xz = x * z
    zx = z * x
    assert xz.phase == 2
    assert zx.phase == 0
    assert xz.same_pauli(zx)
    assert (xz.phase - zx.phase) % 4 == 2


def test_square_of_y_is_minus_identity():
    # (ZX)^2 = -I, tracked through the exponent arithmetic.
    zx = PauliGrid([[1]], [[1]])
    sq = zx * zx
    assert sq.weight() == 0
    assert sq.phase == 2


def test_literal_y_squares_to_identity():
    y = PauliGrid.single(1, 1, 0, 0, "Y")
    assert y.phase == 3
    sq = y * y
    assert sq.weight() == 0 and sq.phase == 0


def test_y_is_phase_shifted_zx():
    z = PauliGrid.single(1, 1, 0, 0, "Z")
    x = PauliGrid.single(1, 1, 0, 0, "X")
    zx = z * x
    y = PauliGrid.single(1, 1, 0, 0, "Y")
    assert y.same_pauli(zx)
    assert (y.phase - zx.phase) % 4 == 3


def test_multiplication_associative_with_phases():
    rng = np.random.default_rng(33)
    for _ in range(100):
        a, b, c = (random_op(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_commutation_matches_phase_comparison():
    rng = np.random.default_rng(34)
    for _ in range(100):
        a, b = random_op(rng), random_op(rng)
        ab, ba = a * b, b * a
        assert ab.same_pauli(ba)
        assert a.commutes(b) == (ab.phase == ba.phase)


def test_weight_subadditive():
    rng = np.random.default_rng(35)
    for _ in range(100):
        a, b = random_op(rng), random_op(rng)
        assert (a * b).weight() <= a.weight() + b.weight()


def test_self_product_phase_rule():
    rng = np.random.default_rng(36)
    for _ in range(50):
        op = random_op(rng)
        sq = op * op
        assert not sq.z.any() and not sq.x.any()
        overlap = int(np.count_nonzero(op.x & op.z))
        assert sq.phase == (2 * op.phase + 2 * overlap) % 4


def test_mirror_swaps_axes_and_parts():
    op = PauliGrid([[1, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 1]], phase=1)
    m = op.mirror()
    assert m.shape == (3, 2)
    assert np.array_equal(m.z, op.x.T)
    assert np.array_equal(m.x, op.z.T)
    assert m.phase == op.phase
    assert m.mirror() == op


def test_rendering():
    op = PauliGrid([[1, 1, 0], [0, 0, 0]], [[0, 1, 0], [1, 0, 0]])
    assert op.to_rows() == ["ZYI", "XII"]
    assert op.site(0, 1) == "Y"


def test_equality_includes_phase():
    a = PauliGrid([[1]], [[0]], phase=0)
    b = PauliGrid([[1]], [[0]], phase=2)
    assert a != b
    assert a.same_pauli(b)


def test_rejects_non_binary_entries():
    # 256 and -1 must not wrap to a valid uint8 exponent, and 0.5 must not
    # truncate to 0.
    for bad in ([[2]], [[256]], [[-1]], [[0.5]], np.array([[256]])):
        with pytest.raises(ValueError):
            PauliGrid(bad, [[0]])
        with pytest.raises(ValueError):
            PauliGrid([[0]], bad)

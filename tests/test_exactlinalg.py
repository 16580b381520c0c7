import numpy as np

from rectaspec.exactlinalg import (charpoly, exact_matmul, poly_compose_negate,
                                   poly_eval_at_poly, poly_mul, rank)


def random_symmetric(rng, n, lo=-1, hi=1):
    a = rng.integers(lo, hi + 1, size=(n, n))
    a = np.triu(a, 1)
    return a + a.T


def test_exact_matmul_matches_python():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        a = rng.integers(-3, 4, size=(n, n))
        b = rng.integers(-3, 4, size=(n, n))
        assert np.array_equal(exact_matmul(a, b), a.astype(object) @ b.astype(object))


def test_exact_matmul_past_int64():
    # 2 * (2**31)**2 = 2**63 is one past the int64 range: int64 arithmetic
    # would wrap every entry to -2**63
    a = np.full((2, 2), 2 ** 31)
    assert exact_matmul(a, a).tolist() == [[2 ** 63] * 2] * 2
    # below 2**63 but past the float64-exact range the product stays int64
    b = np.full((2, 2), 2 ** 30)
    prod = exact_matmul(b, b)
    assert prod.dtype == np.int64 and prod.tolist() == [[2 ** 61] * 2] * 2
    rng = np.random.default_rng(3)
    c = rng.integers(-2 ** 40, 2 ** 40, size=(6, 5))
    d = rng.integers(-2 ** 40, 2 ** 40, size=(5, 4))
    assert np.array_equal(exact_matmul(c, d), c.astype(object) @ d.astype(object))


def test_exact_matmul_float32_boundary():
    # 4095^2 = 16,769,025 is below 2**24 and takes float32; 4097^2 is past
    # it, where float32 rounds the product to 16,785,408
    assert exact_matmul(np.array([[4095]]), np.array([[4095]])).tolist() == [[16_769_025]]
    assert int(np.float32(4097) * np.float32(4097)) != 16_785_409
    prod = exact_matmul(np.array([[4097]]), np.array([[4097]]))
    assert prod.dtype == np.int64 and prod.tolist() == [[16_785_409]]


def test_exact_matmul_operand_dtypes_agree():
    rng = np.random.default_rng(5)
    support = rng.integers(0, 2, size=(9, 9)).astype(bool)
    signs = rng.choice([-1, 1], size=(9, 9)) * support
    want = support.astype(object) @ signs.astype(object)
    for left in (support, support.astype(np.int8), support.astype(np.int64)):
        for right in (signs.astype(np.int8), signs.astype(np.int64)):
            prod = exact_matmul(left, right)
            assert prod.dtype == np.int64 and np.array_equal(prod, want)
    square = exact_matmul(support, support)
    assert square.dtype == np.int64
    assert np.array_equal(square, exact_matmul(support.astype(np.int8), support.astype(np.int64)))


def test_charpoly_known_values():
    assert charpoly(np.array([[0, 1], [1, 0]])) == [1, 0, -1]  # x^2 - 1
    assert charpoly(np.zeros((3, 3), dtype=int)) == [1, 0, 0, 0]
    assert charpoly(np.array([[2]])) == [1, -2]


def test_charpoly_against_float_eigenvalues():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(1, 9))
        a = random_symmetric(rng, n)
        coeffs = charpoly(a)
        eig = np.sort(np.linalg.eigvalsh(a.astype(float)))
        roots = np.sort(np.roots([float(c) for c in coeffs]).real)
        assert np.allclose(eig, roots, atol=1e-6)


def test_rank_and_nullity_against_numpy():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        a = rng.integers(-2, 3, size=(n, m))
        assert rank(a) == np.linalg.matrix_rank(a.astype(float))


def test_poly_helpers():
    # (x - 1)(x + 1) = x^2 - 1
    assert poly_mul([1, -1], [1, 1]) == [1, 0, -1]
    # p(x) = x^2 + 2x + 3 at -x
    assert poly_compose_negate([1, 2, 3]) == [1, -2, 3]
    # substitute x^2 - 1 into y + 1
    assert poly_eval_at_poly([1, 1], [1, 0, -1]) == [1, 0, 0]


def test_charpoly_rejects_nothing_but_works_big():
    a = random_symmetric(np.random.default_rng(9), 20)
    coeffs = charpoly(a)
    assert len(coeffs) == 21 and coeffs[0] == 1
    assert coeffs[1] == -int(np.trace(a))

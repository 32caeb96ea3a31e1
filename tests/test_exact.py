import random
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpointlab import exact
from fatpointlab.exact import (
    PRIMALITY_BOUND,
    ExactMatrix,
    InternalError,
    ScalarField,
    _bareiss_echelon,
    certificate_prime,
    is_prime,
)
from fatpointlab.instances import InstanceError, field_from_descriptor
from fatpointlab.matroid import VectorMatroid
from fatpointlab.schemes import FatPointScheme, conditions_matrix, regularity_index
from oracles import rref, rref_kernel_basis

QQ = ScalarField.rational()
FP = ScalarField.prime(10007)
F61 = ScalarField.prime(2**61 - 1)


def naive_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(len(rows)):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * naive_det(minor)
    return total


def minor_rank(m):
    """Independent oracle: largest size of a nonzero square minor (over F_p,
    of a minor of the residues that is nonzero mod p)."""
    return rows_minor_rank(m.entries, m.field.p)


def rows_minor_rank(rows, p=None):
    """``minor_rank`` of rows of rationals (over F_p, of residues)."""
    entries = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(entries), len(entries[0])
    best = 0
    for size in range(1, min(nrows, ncols) + 1):
        for rsel in combinations(range(nrows), size):
            for csel in combinations(range(ncols), size):
                sub = [[entries[i][j] for j in csel] for i in rsel]
                det = naive_det(sub)
                if (det if p is None else det % p) != 0:
                    best = size
                    break
            else:
                continue
            break
    return best


class TestScalarField:
    def test_prime_rejects_composite(self):
        with pytest.raises(ValueError):
            ScalarField.prime(10)

    def test_is_prime(self):
        assert is_prime(2) and is_prime(10007) and is_prime(2**31 - 1)
        assert not is_prime(1) and not is_prime(561)

    def test_is_prime_refuses_unproven_range(self):
        # the bound is the least strong pseudoprime to the first twelve
        # prime bases, so Miller-Rabin with them would call it prime
        assert not is_prime(PRIMALITY_BOUND - 2)
        for n in (PRIMALITY_BOUND, PRIMALITY_BOUND + 2, 2**127 - 1):
            with pytest.raises(ValueError):
                is_prime(n)
            with pytest.raises(ValueError):
                ScalarField.prime(n)
        with pytest.raises(InstanceError):
            field_from_descriptor("prime:%d" % PRIMALITY_BOUND)

    def test_certificate_primes(self):
        # the first 16 primes of the stream, in this order, were a literal
        # table: every certificate still starts with the same eliminations
        assert [certificate_prime(k) for k in range(16)] == [
            2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
            2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
            2147483353, 2147483323, 2147483269, 2147483249,
        ]
        stream = [certificate_prime(k) for k in range(300)]
        # every prime below 2^31 in a stretch, largest first, none skipped
        assert stream == [q for q in range(2**31 - 1, stream[-1] - 1, -2) if is_prime(q)]
        # residues multiply exactly in int64
        assert (stream[0] - 1) ** 2 < 2**63

    def test_parse_fraction_string(self):
        assert QQ.elem("2/3") == Fraction(2, 3)
        assert FP.elem("2/3") == 2 * pow(3, -1, 10007) % 10007


class TestRank:
    def test_identity(self):
        assert ExactMatrix(QQ, [[1, 0], [0, 1]]).rank() == 2

    def test_zero(self):
        assert ExactMatrix(QQ, [[0] * 4 for _ in range(3)]).rank() == 0

    def test_hand_eliminated(self):
        assert ExactMatrix(QQ, [[1, 0, 1], [0, 1, 1]]).rank() == 2

    def test_rational_entries(self):
        m = ExactMatrix(QQ, [["1/2", "1/3"], ["1", "1"]])
        assert m.rank() == 2
        singular = ExactMatrix(QQ, [["1/2", "1/3"], ["3/2", "1"]])
        assert singular.rank() == 1

    @pytest.mark.parametrize("field", [QQ, FP])
    def test_agrees_with_minor_search(self, field):
        rng = random.Random(5)
        for _ in range(30):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            raw = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            m = ExactMatrix(field, raw)
            assert m.rank() == minor_rank(ExactMatrix(QQ, raw))

    def test_transpose_invariance(self):
        rng = random.Random(6)
        for _ in range(20):
            raw = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(3)]
            m = ExactMatrix(QQ, raw)
            assert m.rank() == ExactMatrix(QQ, list(zip(*raw))).rank()

    def test_row_permutation_and_scaling_invariance(self):
        rng = random.Random(7)
        for _ in range(20):
            raw = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
            m = ExactMatrix(QQ, raw)
            perm = list(range(4))
            rng.shuffle(perm)
            factors = [Fraction(rng.choice([1, 2, -3])) for _ in perm]
            scaled = [[factors[i] * x for x in raw[i]] for i in perm]
            assert ExactMatrix(QQ, scaled).rank() == m.rank()


def low_rank(rng, nrows, ncols, k, bits=4):
    """A random nrows x ncols integer matrix of rank at most k."""
    u = [[rng.randint(-2**bits, 2**bits) for _ in range(k)] for _ in range(nrows)]
    v = [[rng.randint(-2**bits, 2**bits) for _ in range(ncols)] for _ in range(k)]
    return [[sum(u[i][t] * v[t][j] for t in range(k)) for j in range(ncols)]
            for i in range(nrows)]


def bareiss_rank(rows):
    """The rank over Q of integer rows: the fraction-free echelon's pivot
    count."""
    return len(_bareiss_echelon(rows)[1])


def transposed(rows):
    return [list(col) for col in zip(*rows)]


def certified_rank(rows):
    """The rank over Q of integer rows by the modular certificate, which
    ``rank`` uses only from ``_NUMPY_MIN_CELLS`` cells on."""
    return len(exact._echelon_kernel(exact._tall(rows))[0])


def count_lifts(monkeypatch):
    """The moduli of the kernel lifts from now on, in order."""
    attempts = []
    lift = exact._lift

    def counted(rows, lifts, modulus):
        attempts.append(modulus)
        return lift(rows, lifts, modulus)

    monkeypatch.setattr(exact, "_lift", counted)
    return attempts


def count_eliminations(monkeypatch):
    """The primes of the eliminations mod p from now on, in order: every
    one goes through ``_echelon_mod_p``."""
    primes = []
    eliminate = exact._echelon_mod_p

    def counted(rows, p):
        primes.append(p)
        return eliminate(rows, p)

    monkeypatch.setattr(exact, "_echelon_mod_p", counted)
    return primes


def no_bareiss(monkeypatch):
    def refuse(*args):
        raise AssertionError("rank was not certified from modular data")

    monkeypatch.setattr(exact, "_bareiss_echelon", refuse)


class TestCertifiedRank:
    """The rank over Q from mod-p data and kernel certificates, against
    fraction-free elimination as the oracle."""

    @given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 7),
           st.sets(st.integers(0, 6)), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_bareiss(self, nrows, ncols, k, scaled, seed):
        rng = random.Random(seed)
        rows = low_rank(rng, nrows, ncols, min(k, nrows, ncols))
        # rows that are multiples of 2^31 - 1 vanish modulo the first prime
        rows = [[x * certificate_prime(0) for x in row] if i in scaled else row
                for i, row in enumerate(rows)]
        for raw in (rows, transposed(rows)):
            assert certified_rank(raw) == bareiss_rank(raw)

    @pytest.mark.parametrize("shape", [(12, 15, 5), (15, 12, 8), (20, 9, 9), (9, 20, 2), (14, 14, 13)])
    def test_numpy_sized(self, shape, monkeypatch):
        nrows, ncols, k = shape
        rows = low_rank(random.Random(nrows * ncols + k), nrows, ncols, k)
        expected = bareiss_rank(rows)
        assert expected == k
        no_bareiss(monkeypatch)
        assert ExactMatrix(QQ, rows).rank() == expected
        assert ExactMatrix(QQ, transposed(rows)).rank() == expected

    @pytest.mark.parametrize("nrows, ncols, k", [(5, 7, 3), (7, 5, 3), (10, 12, 6)])
    def test_unlucky_first_prime(self, nrows, ncols, k, monkeypatch):
        rows = low_rank(random.Random(k), nrows, ncols, k)
        assert bareiss_rank(rows) == k
        # only k - 1 rows survive modulo the first prime
        p = certificate_prime(0)
        rows = [[x * p for x in row] if i <= nrows - k else row for i, row in enumerate(rows)]
        assert ExactMatrix(ScalarField.prime(p), rows).rank() < k
        no_bareiss(monkeypatch)
        assert certified_rank(rows) == k
        assert certified_rank(transposed(rows)) == k

    def test_kernel_lifted_from_several_primes(self, monkeypatch):
        # kernel heights of about 100 bits need several primes by CRT
        rows = low_rank(random.Random(4), 5, 6, 4, bits=12)
        attempts = count_lifts(monkeypatch)
        no_bareiss(monkeypatch)
        assert certified_rank(rows) == 4
        # one lift after each of the first primes, all of them lucky
        primes = [certificate_prime(k) for k in range(len(attempts))]
        assert len(attempts) > 2 and attempts == [prod(primes[:k + 1]) for k in range(len(primes))]

    def test_tall_kernel_certified_past_16_primes(self, monkeypatch):
        # kernel heights of roughly 4 x 2 x 120 bits exceed what the CRT
        # modulus of the first 16 primes can reconstruct
        rows = low_rank(random.Random(9), 5, 6, 4, bits=120)
        expected = bareiss_rank(rows)
        no_bareiss(monkeypatch)
        for raw in (rows, transposed(rows)):
            attempts = count_lifts(monkeypatch)
            assert certified_rank(raw) == expected == 4
            # a lift after each of the first 16 primes, then whenever the
            # count of primes has grown by a quarter: at 20, 25, then 32
            moduli = [prod(certificate_prime(k) for k in range(count)) for count in (16, 20, 25, 32)]
            assert len(attempts) == 19 and attempts[15:] == moduli

    @pytest.mark.parametrize("digits, needed, run", [(100, 108, 124), (300, 322, 380)])
    def test_lift_schedule_past_16_primes(self, digits, needed, run, monkeypatch):
        # the degree-3 conditions matrix of 3(10^k : 7 : 1) + 2(1 : 1 : 1),
        # 10 x 9 on its tall side and of rank 8: a lift after every prime
        # would first succeed at `needed` primes; lifting whenever the count
        # grows by a quarter overshoots that by less than a quarter, where
        # lifting at powers of two ran 128 and 512
        x = FatPointScheme(QQ, 2, [((10**digits, 7, 1), 3), ((1, 1, 1), 2)])
        m = conditions_matrix(x, 3)
        primes = count_eliminations(monkeypatch)
        moduli = count_lifts(monkeypatch)
        assert m.rank() == 8
        assert len(primes) == run < 1.25 * needed
        assert primes == [certificate_prime(k) for k in range(run)]
        assert moduli[-1] == prod(primes)

    def test_hadamard_bound_ends_the_certificate(self, monkeypatch):
        # the primes the Hadamard bound proves enough reconstruct every
        # kernel entry, so a lift that still fails there is a bug
        rows = low_rank(random.Random(3), 8, 8, 5)
        attempts = []

        def refused(rows, lifts, modulus):
            attempts.append(modulus)

        monkeypatch.setattr(exact, "_lift", refused)
        with pytest.raises(InternalError, match="Hadamard"):
            certified_rank(rows)
        # 16 lifts, then one at the first count past 16 with enough bits
        assert len(attempts) == 17

    def test_collinear_cluster_needs_no_kernel_certificate(self, monkeypatch):
        # the heaviest line proves h(13) deficient and the residues mod the
        # first prime show h(14) full, so no rank is certified from a kernel
        def refuse(*args):
            raise AssertionError("a rank was certified from a kernel")

        monkeypatch.setattr(exact, "_echelon_kernel", refuse)
        line = [(1, 0, 0), (1, 1, 0), (1, 2, 0)]
        x = FatPointScheme(QQ, 2, [(p, 5) for p in line + [(3, 7, 1), (5, 2, 1)]])
        assert regularity_index(x) == 14


class TestKernel:
    def test_identity_trivial_kernel(self):
        assert ExactMatrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).kernel_basis() == []

    def test_zero_row(self):
        # separating_hypersurface relies on this order for a block of P only
        assert ExactMatrix(QQ, [[0, 0]]).kernel_basis() == [(1, 0), (0, 1)]

    def test_proportional(self):
        (v,) = ExactMatrix(QQ, [[1, 1]]).kernel_basis()
        assert v[0] * -1 == v[1] * 1 and v != (0, 0)

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, raw):
        m = ExactMatrix(QQ, raw)
        basis = m.kernel_basis()
        assert len(basis) == m.ncols - m.rank()
        for v in basis:
            assert all(x == 0 for x in m.mul_vector(v))

    def test_prime_field_kernel(self):
        m = ExactMatrix(FP, [[1, 1, 0], [0, 1, 1]])
        basis = m.kernel_basis()
        assert len(basis) == 1
        assert all(x == 0 for x in m.mul_vector(basis[0]))


class TestLargePrime:
    """Over F_p with p >= 2^31 products of residues overflow int64, so the
    elimination of numpy size runs on Python ints in an object array."""

    P = 2**61 - 1

    def test_rank_and_kernel_on_numpy_sized_matrix(self):
        rng = random.Random(61)
        rows = [[rng.randrange(self.P // 2, self.P) for _ in range(9)] for _ in range(8)]
        rows.append([(a + b) % self.P for a, b in zip(rows[0], rows[1])])
        assert len(rows) * len(rows[0]) >= exact._NUMPY_MIN_CELLS
        # the last row is the sum of the first two mod p only
        assert ExactMatrix(QQ, rows).rank() == 9
        m = ExactMatrix(ScalarField.prime(self.P), rows)
        assert m.rank() == 8
        assert exact._echelon_mod_p(m.entries, self.P)[0].dtype == object
        (v,) = m.kernel_basis()
        assert all(type(x) is int for x in v)
        assert m.mul_vector(v) == (0,) * 9


class TestColumnSubset:
    def test_empty(self):
        assert ExactMatrix(QQ, [[1, 2], [3, 4]]).rank_of_column_subset([]) == 0

    def test_parallel_columns(self):
        m = ExactMatrix.from_columns(QQ, [(1, 2), (2, 4), (3, 6)])
        assert m.rank_of_column_subset([0, 1, 2]) == 1

    def test_standard_basis_pair(self):
        m = ExactMatrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert m.rank_of_column_subset([0, 2]) == 2

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            ExactMatrix(QQ, [[1]]).rank_of_column_subset([3])

    @pytest.mark.parametrize("columns", [[(1, 2), (3,)], [(1,), (2, 3)], [(), ()]])
    def test_ragged_or_empty_columns_rejected(self, columns):
        with pytest.raises(ValueError, match="columns must be nonempty and of equal length"):
            ExactMatrix.from_columns(QQ, columns)


def refuse(what):
    def refused(*args):
        raise AssertionError("%s was called" % what)

    return refused


F7 = ScalarField.prime(7)
# integers, fractions with denominators prime to 7, and many zeros
ENTRIES = st.one_of(st.integers(-3, 3), st.just(0),
                    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([2, 3, 5])))


@st.composite
def column_configurations(draw):
    """Columns of one length with zero and parallel columns among them,
    and a nonempty subset of their indices."""
    dim = draw(st.integers(1, 4))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "zero", "parallel"]))
        if kind == "zero":
            columns.append((0,) * dim)
        elif kind == "parallel" and columns:
            scale = draw(st.sampled_from([Fraction(-1), Fraction(2), Fraction(3, 2)]))
            columns.append(tuple(scale * x for x in draw(st.sampled_from(columns))))
        else:
            columns.append(tuple(draw(st.lists(ENTRIES, min_size=dim, max_size=dim))))
    subsets = draw(st.lists(st.sets(st.integers(0, len(columns) - 1), min_size=1),
                            min_size=1, max_size=4))
    return columns, subsets


@st.composite
def kernel_cases(draw):
    """(field, rows) over Q, F_7, F_10007 or F_{2^61 - 1}: fractional
    entries, zero rows and rows combined from earlier ones; sometimes 8 or
    9 x 9, at least ``_NUMPY_MIN_CELLS`` cells."""
    field = draw(st.sampled_from([QQ, F7, FP, F61]))
    if draw(st.booleans()):
        nrows, ncols = draw(st.integers(8, 9)), 9
    else:
        nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "zero", "dependent"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "dependent" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(ENTRIES), draw(ENTRIES)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)))
    return field, rows


def assert_kernel_matches_rref(field, raw):
    basis = ExactMatrix(field, raw).kernel_basis()
    expected = rref_kernel_basis(field, [[field.elem(x) for x in row] for row in raw])
    assert basis == expected
    assert [list(map(str, v)) for v in basis] == [list(map(str, v)) for v in expected]


class TestKernelAgainstGaussJordan:
    """The kernel basis, read off the reduction mod p over F_p and lifted
    from reductions modulo the certificate primes over Q, is the one
    Gauss-Jordan elimination on field elements gives, entry for entry."""

    @given(kernel_cases())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_rref(self, case):
        assert_kernel_matches_rref(*case)

    @pytest.mark.parametrize("field", [F7, FP, F61])
    def test_numpy_sized_prime_field(self, field, monkeypatch):
        rows = low_rank(random.Random(field.p), 9, 9, 5)
        rows[3] = [0] * 9
        rows[6] = [Fraction(x, 3) for x in rows[6]]
        assert len(rows) * len(rows[0]) >= exact._NUMPY_MIN_CELLS
        # the kernel is read off one reduction mod p, never off the
        # fraction-free echelon
        primes = count_eliminations(monkeypatch)
        no_bareiss(monkeypatch)
        assert_kernel_matches_rref(field, rows)
        assert primes == [field.p]

    def test_first_prime_with_later_pivots(self, monkeypatch):
        # column 1 vanishes modulo the first prime, which so sees the
        # pivots (0, 2, 3) instead of (0, 1, 3) at the same rank; the
        # kernel is lifted from the primes with the earlier pivots
        p = certificate_prime(0)
        rows = [[1, 2 * p, 3] + [k] * 6 for k in range(1, 9)]
        rows[1][:3] = [1, p, 5]
        pivots = rref([[QQ.elem(x) for x in row] for row in rows], QQ)[1]
        unlucky = exact._echelon_mod_p(rows, p)[1]
        assert len(pivots) == len(unlucky) and pivots < unlucky
        moduli = count_lifts(monkeypatch)
        no_bareiss(monkeypatch)
        assert_kernel_matches_rref(QQ, rows)
        # the lift from the first prime fails; the second prime starts the
        # combination afresh
        assert moduli[0] == p and len(moduli) > 1
        assert moduli[1:] == [prod(certificate_prime(j) for j in range(1, k + 2))
                              for k in range(len(moduli) - 1)]


class TestSmallRankRoute:
    """Below ``_NUMPY_MIN_CELLS`` cells a rank over Q or F_p is
    fraction-free elimination, from that size on over Q the modular
    certificate and over F_p numpy's elimination mod p."""

    def test_vector_matroid_queries_build_no_matrix_and_reduce_nothing(self, monkeypatch):
        columns = [(1, 0, "1/2"), (2, 0, 1), (0, 1, 0), (1, 1, "1/2"), (0, 0, 0), (3, "1/3", 1)]
        m = VectorMatroid(ExactMatrix.from_columns(QQ, columns))
        expected = {
            subset: minor_rank(ExactMatrix.from_columns(QQ, [columns[j] for j in subset]))
            for size in range(1, 7) for subset in combinations(m.elements, size)
        }
        monkeypatch.setattr(exact, "_echelon_mod_p", refuse("_echelon_mod_p"))
        monkeypatch.setattr(ExactMatrix, "__init__", refuse("ExactMatrix.__init__"))
        monkeypatch.setattr(ExactMatrix, "from_integer_rows",
                            classmethod(refuse("ExactMatrix.from_integer_rows")))
        for subset, rank in expected.items():
            assert m.rank(subset) == rank
        assert m.full_rank() == 3 and m.rank([0, 1, 2, 3, 4]) == 2

    @pytest.mark.parametrize("shape, route", [((7, 9), "bareiss"), ((9, 7), "bareiss"),
                                              ((8, 8), "certified")])
    def test_rank_on_each_side_of_the_split(self, shape, route, monkeypatch):
        nrows, ncols = shape
        rows = low_rank(random.Random(nrows * ncols), nrows, ncols, 5)
        assert bareiss_rank(rows) == 5
        assert (nrows * ncols < exact._NUMPY_MIN_CELLS) == (route == "bareiss")
        if route == "bareiss":
            monkeypatch.setattr(exact, "_echelon_kernel", refuse("_echelon_kernel"))
            monkeypatch.setattr(exact, "_echelon_mod_p", refuse("_echelon_mod_p"))
        else:
            no_bareiss(monkeypatch)
        assert ExactMatrix(QQ, rows).rank() == 5
        assert ExactMatrix(QQ, transposed(rows)).rank() == 5

    @pytest.mark.parametrize("field", [F7, FP, F61])
    @pytest.mark.parametrize("shape", [(7, 9), (9, 7), (8, 8)])
    def test_prime_field_rank_on_each_side_of_the_split(self, shape, field, monkeypatch):
        nrows, ncols = shape
        rows = low_rank(random.Random(nrows * ncols), nrows, ncols, 3)
        # row 0 is row 1 mod p, but adds a rank over Q
        rows[0] = [x + field.p * (j == 0) for j, x in enumerate(rows[1])]
        assert bareiss_rank(rows) == 4
        expected = len(rref([[field.elem(x) for x in row] for row in rows], field)[1])
        assert expected == 3
        if nrows * ncols < exact._NUMPY_MIN_CELLS:
            monkeypatch.setattr(exact, "_echelon_mod_p", refuse("_echelon_mod_p"))
        else:
            no_bareiss(monkeypatch)
        assert ExactMatrix(field, rows).rank() == expected
        assert ExactMatrix(field, transposed(rows)).rank() == expected

    @pytest.mark.parametrize("nrows, route", [(9, "bareiss"), (8, "certified")])
    def test_column_subset_on_each_side_of_the_split(self, nrows, route, monkeypatch):
        # 7 of 9 rows' columns make 63 cells, 8 of 8 rows' columns 64
        ncols = 16 - nrows
        rows = low_rank(random.Random(nrows), nrows, 10, 6)
        m = ExactMatrix(QQ, rows)
        expected = bareiss_rank([row[:ncols] for row in rows])
        if route == "bareiss":
            monkeypatch.setattr(exact, "_echelon_kernel", refuse("_echelon_kernel"))
        else:
            no_bareiss(monkeypatch)
        assert m.rank_of_column_subset(range(ncols)) == expected == 6

    @given(column_configurations(), st.sampled_from([QQ, F7]))
    @settings(max_examples=150, deadline=None)
    def test_column_subset_agrees_with_minor_search(self, configuration, field):
        columns, subsets = configuration
        m = ExactMatrix.from_columns(field, columns)
        for subset in subsets:
            sub = ExactMatrix.from_columns(field, [columns[j] for j in sorted(subset)])
            assert m.rank_of_column_subset(subset) == minor_rank(sub)


class TestIntegerRepresentation:
    """Rationals are cleared to integers once: a matrix holds, and hands
    back, integers only, with the ranks and kernels of the given rows."""

    @given(st.sampled_from([QQ, F7, FP]),
           st.integers(1, 4).flatmap(lambda ncols: st.lists(
               st.lists(ENTRIES, min_size=ncols, max_size=ncols), min_size=1, max_size=4)))
    @settings(max_examples=150, deadline=None)
    def test_one_integer_representation(self, field, raw):
        values = [[field.elem(x) for x in row] for row in raw]
        by_rows = ExactMatrix(field, raw)
        by_columns = ExactMatrix.from_columns(field, raw)
        for m in (by_rows, by_columns):
            assert all(type(x) is int for row in m.entries for x in row)
            assert all(type(x) is int for j in range(m.ncols) for x in m.column(j))
        for j, vector in enumerate(values):
            column = by_columns.column(j)
            if not field.is_rational:
                assert column == tuple(vector)
            elif any(vector):
                i = next(i for i, x in enumerate(vector) if x)
                scale = Fraction(column[i]) / vector[i]
                assert scale.denominator == 1 and scale > 0
                assert column == tuple(scale * x for x in vector)
            else:
                assert not any(column)
        rank = rows_minor_rank(values, field.p)
        assert by_rows.rank() == by_columns.rank() == rank
        basis = by_rows.kernel_basis()
        assert len(basis) == by_rows.ncols - rank
        for v in basis:
            for row in values:
                total = sum(x * y for x, y in zip(row, v))
                assert (total if field.is_rational else total % field.p) == 0

    @given(st.lists(st.one_of(st.integers(-10**30, 10**30),
                              st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))),
                    min_size=1, max_size=6),
           st.lists(st.sampled_from(["int", "fraction", "string"]), min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_integer_vector_over_q_passes_ints_and_fractions_through(self, values, forms):
        # ints and Fractions are cleared as they are, without a new Fraction
        # per entry; only other values, such as 'a/b' strings, go through elem
        given = []
        for v, form in zip(values, forms):
            v = Fraction(v)
            if form == "int" and v.denominator == 1:
                given.append(int(v))
            elif form == "string":
                given.append("%d/%d" % (v.numerator, v.denominator))
            else:
                given.append(v)
        # the clearing with every entry coerced by elem, as it was done before
        coerced = [QQ.elem(v) for v in given]
        den = lcm(*(v.denominator for v in coerced))
        expected = tuple(v.numerator * (den // v.denominator) for v in coerced)
        calls = []
        elem = ScalarField.elem

        def spy(field, x):
            calls.append(x)
            return elem(field, x)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ScalarField, "elem", spy)
            assert exact.integer_vector(QQ, given) == expected
        assert calls == [v for v in given if isinstance(v, str)]


def test_rank_plus_kernel_dimension():
    rng = random.Random(8)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = ExactMatrix(QQ, [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)])
        assert m.rank() + len(m.kernel_basis()) == nc


@st.composite
def echelon_cases(draw):
    """(rows, p, as_array): integer rows with zero rows, zero columns and
    rows combined from earlier ones, modulo a prime below 2^31 (int64
    arrays) or above it (object arrays), given as lists or, for the int64
    side, as an array of residues; 1 to 12 rows of 1 to 12 columns."""
    p = draw(st.sampled_from([7, 10007, certificate_prime(0), 2**61 - 1]))
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols // 2))
    entry = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-2**70, 2**70))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "zero", "dependent"]))
        if kind == "zero":
            row = [0] * ncols
        elif kind == "dependent" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rows.append([0 if j in zero_cols else x for j, x in enumerate(row)])
    return rows, p, p < 2**31 and draw(st.booleans())


class TestResidueArrays:
    """The one elimination mod p, ``_echelon_mod_p``, and the
    back-substitution ``_rref_mod_p`` on its array, on both dtypes."""

    @given(echelon_cases())
    @settings(max_examples=200, deadline=None)
    def test_echelon_then_back_substitution(self, case):
        import numpy as np

        rows, p, as_array = case
        field = ScalarField.prime(p)
        given = np.array([[x % p for x in row] for row in rows], dtype=np.int64) if as_array else rows
        ech, pivots = exact._echelon_mod_p(given, p)
        assert ech.dtype == (np.int64 if p < 2**31 else object)
        assert pivots == _bareiss_echelon(rows, p)[1]
        # pivot rows are 1 at their pivots, with zeros below each pivot and
        # in every row past the rank
        r = len(pivots)
        assert all(ech[i, c] == 1 and not ech[i + 1:, c].any() for i, c in enumerate(pivots))
        assert not ech[r:].any()
        red = exact._rref_mod_p(ech, pivots, p)
        assert red is ech
        expected, expected_pivots = rref([[field.elem(x) for x in row] for row in rows], field)
        assert pivots == expected_pivots
        assert red.tolist() == expected

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (8, 8), (12, 6)])
    def test_rref_of_an_int64_array(self, shape):
        import numpy as np

        rows = low_rank(random.Random(shape[0]), *shape, 2)
        rows = [[x % 10007 for x in row] for row in rows]
        ech, pivots = exact._echelon_mod_p(np.array(rows, dtype=np.int64), 10007)
        expected_ech, expected_pivots = exact._echelon_mod_p(rows, 10007)
        assert pivots == expected_pivots
        assert ech.tolist() == expected_ech.tolist()
        assert ech.dtype == expected_ech.dtype == np.int64
        red = exact._rref_mod_p(ech, pivots, 10007)
        assert red.tolist() == exact._rref_mod_p(expected_ech, pivots, 10007).tolist()
        assert red.dtype == np.int64

    def test_int64_residues_refused_from_2_31(self):
        # products of residues from 2^31 on overflow int64 without an error,
        # so such an array is refused, not reduced
        import numpy as np

        for p in (2**31 + 11, 2**61 - 1):
            with pytest.raises(ValueError, match="overflow"):
                exact._echelon_mod_p(np.eye(8, dtype=np.int64), p)
        assert exact._echelon_mod_p(np.eye(8, dtype=np.int64), certificate_prime(0))[1] == list(range(8))

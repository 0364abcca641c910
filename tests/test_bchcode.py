import numpy as np
import pytest

from bchforms import bchcode, gfarith
from bchforms.bchcode import (
    CyclicCode,
    TraceCodewordSpec,
    generator_polynomial,
    minimal_polynomial,
    trace_codeword,
)
from bchforms.cyclotomic import code_params, cyclotomic_coset
from bchforms.forms import family_size
from bchforms.gfarith import field_for
from field_reference import poly_deg, poly_is_irreducible, poly_mod, power
from bchforms.schemes import FamilySpec, family_lambdas


def in_code(word: np.ndarray, code: CyclicCode) -> bool:
    """Membership: the word polynomial leaves no remainder modulo the generator."""
    return not poly_mod(code.field.base, gfarith.poly_trim(word.tolist()), code.generator)


def coset_words(params, lambdas) -> list[np.ndarray]:
    """The q^(m+1) words Q + Tr(mu x) + eps of the PRM coset of one member."""
    return [trace_codeword(params, TraceCodewordSpec(lambdas, mu, eps))
            for mu in range(params.q ** params.m) for eps in range(params.q)]


def test_minimal_polynomial_s0():
    fld = field_for(3, 3)
    assert minimal_polynomial(fld, 0) == [2, 1]  # x - 1


def test_minimal_polynomial_degree_and_root():
    fld = field_for(2, 4)
    ms = minimal_polynomial(fld, 1)
    assert len(ms) - 1 == 4
    assert poly_is_irreducible(fld.base, ms)
    # m_1(alpha) = 0, evaluated in the big field
    acc = 0
    for d, c in enumerate(ms):
        acc = fld.add(acc, fld.mul(c, power(fld, fld.alpha, d)))
    assert acc == 0
    fld3 = field_for(3, 3)
    assert len(minimal_polynomial(fld3, 14)) - 1 == 3


def test_generator_polynomial_dimensions():
    assert generator_polynomial(2, 4, 5).dimension == 7
    assert generator_polynomial(3, 3, 14).dimension == 7
    fld = field_for(2, 5)
    c1 = poly_deg(minimal_polynomial(fld, 1))
    assert generator_polynomial(2, 5, 2).dimension == 31 - c1


def test_generator_matches_product_over_cosets_of_1_to_delta():
    # reference: one minimal polynomial per distinct coset of s in [1, delta)
    for q, m in [(2, 4), (3, 2), (4, 2), (2, 6)]:
        fld = field_for(q, m)
        for delta in range(2, fld.n + 1):
            g = [1]
            for s in sorted({cyclotomic_coset(t, q, m).leader for t in range(1, delta)}):
                g = gfarith.poly_mul(fld.base, g, minimal_polynomial(fld, s))
            assert generator_polynomial(q, m, delta).generator == g, (q, m, delta)


def test_generator_divides_xn_minus_1():
    for q, m, delta in [(2, 4, 5), (3, 3, 14), (4, 2, 3)]:
        code = generator_polynomial(q, m, delta)
        F = code.field.base
        xn1 = [F.neg_el(1)] + [0] * (code.length - 1) + [1]
        assert not poly_mod(F, xn1, code.generator)


def test_prm_nonzero_mu_weight():
    # Tr(mu x) with mu != 0 vanishes on q^(m-1) field elements, zero included
    params = code_params(3, 3, 1)
    for mu in range(1, 27):
        word = trace_codeword(params, TraceCodewordSpec((0,), mu, 0))
        assert int(np.count_nonzero(word)) == 27 - 9


def test_trace_codeword_trivial_specs():
    params = code_params(3, 3, 1)
    zero = trace_codeword(params, TraceCodewordSpec((0,), 0, 0))
    assert not zero.any()
    const = trace_codeword(params, TraceCodewordSpec((0,), 0, 1))
    assert int(np.count_nonzero(const)) == 26


def test_trace_codewords_live_in_generator_code():
    from bchforms.forms import family_domains

    rng = np.random.default_rng(5)
    for q, m, i in [(3, 3, 1), (2, 4, 1), (2, 4, 2)]:
        params = code_params(q, m, i)
        fld = field_for(q, m)
        code = generator_polynomial(q, m, params.delta_i)
        for _ in range(12):
            lambdas = [int(rng.choice(opts)) for opts in family_domains(fld, i)]
            spec = TraceCodewordSpec(tuple(lambdas), int(rng.integers(fld.size)), int(rng.integers(q)))
            word = trace_codeword(params, spec)
            assert in_code(word, code)
            assert in_code(np.roll(word, 1), code)


def test_trace_codeword_weight_in_example_support():
    params = code_params(3, 3, 1)
    rng = np.random.default_rng(11)
    support = {0, 14, 15, 17, 18, 20, 21, 26}
    for _ in range(30):
        spec = TraceCodewordSpec(
            (int(rng.integers(27)),), int(rng.integers(27)), int(rng.integers(3))
        )
        w = int(np.count_nonzero(trace_codeword(params, spec)))
        assert w in support


def test_trace_and_generator_routes_same_code():
    # mutual membership at desk scale: every trace word is in the generator
    # code, and the counts match the dimension, so the codes coincide; the
    # cyclic shift of every single word stays a member too
    params = code_params(2, 4, 1)
    code = generator_polynomial(2, 4, params.delta_i)
    assert code.dimension == params.dimension
    seen = set()
    for lambdas in family_lambdas(FamilySpec.quadratic(2, 4, 1)):
        for word in coset_words(params, lambdas):
            seen.add(word.tobytes())
            assert in_code(word, code)
            assert in_code(np.roll(word, 1), code)
    assert len(seen) == 2 ** params.dimension


def test_coset_decomposition_structure():
    params = code_params(3, 3, 1)
    members = list(family_lambdas(FamilySpec.quadratic(3, 3, 1)))
    assert len(members) == family_size(3, 3, 1) == 27
    all_words = set()
    for lambdas in members:
        words = {w.tobytes() for w in coset_words(params, lambdas)}
        assert len(words) == 81
        all_words |= words
    assert len(all_words) == 3 ** 7  # pairwise disjoint union


def test_coset_decomposition_2_6_2_sizes():
    params = code_params(2, 6, 2)
    members = list(family_lambdas(FamilySpec.quadratic(2, 6, 2)))
    assert len(members) == 8
    assert len({w.tobytes() for w in coset_words(params, members[3])}) == 2 ** 7

import numpy as np
import pytest

from bchforms import bchcode, gfarith
from bchforms.bchcode import (
    CyclicCode,
    TraceCodewordSpec,
    coset_decomposition,
    cyclic_shift,
    generator_polynomial,
    minimal_polynomial,
    prm_code,
    trace_codeword,
    word_in_code,
)
from bchforms.cyclotomic import code_params
from bchforms.forms import family_size
from bchforms.gfarith import field_for, poly_is_irreducible


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
        acc = fld.add(acc, fld.mul(c, fld.pow(fld.alpha, d)))
    assert acc == 0
    fld3 = field_for(3, 3)
    assert len(minimal_polynomial(fld3, 14)) - 1 == 3


def test_generator_polynomial_dimensions():
    assert generator_polynomial(2, 4, 5).dimension == 7
    assert generator_polynomial(3, 3, 14).dimension == 7
    fld = field_for(2, 5)
    c1 = gfarith.poly_deg(minimal_polynomial(fld, 1))
    assert generator_polynomial(2, 5, 2).dimension == 31 - c1


def test_generator_divides_xn_minus_1():
    for q, m, delta in [(2, 4, 5), (3, 3, 14), (4, 2, 3)]:
        code = generator_polynomial(q, m, delta)
        F = code.field.base
        xn1 = [F.neg_el(1)] + [0] * (code.length - 1) + [1]
        _, rem = gfarith.poly_divmod(F, xn1, code.generator)
        assert not rem


def test_prm_enumeration_gf8():
    counts = {}
    for _, word in prm_code(2, 3):
        w = int(np.count_nonzero(word))
        counts[w] = counts.get(w, 0) + 1
    assert counts == {0: 1, 3: 7, 4: 7, 7: 1}


def test_prm_nonzero_mu_weight():
    for (mu, eps), word in prm_code(3, 2):
        if mu != 0 and eps == 0:
            assert int(np.count_nonzero(word)) == 9 - 3


def test_trace_codeword_trivial_specs():
    params = code_params(3, 3, 1)
    zero = trace_codeword(params, TraceCodewordSpec((0,), 0, 0))
    assert not zero.any()
    const = trace_codeword(params, TraceCodewordSpec((0,), 0, 1))
    assert int(np.count_nonzero(const)) == 26


def test_trace_codewords_live_in_generator_code():
    from bchforms.forms import family_slots

    rng = np.random.default_rng(5)
    for q, m, i in [(3, 3, 1), (2, 4, 1), (2, 4, 2)]:
        params = code_params(q, m, i)
        fld = field_for(q, m)
        code = generator_polynomial(q, m, params.delta_i)
        for _ in range(12):
            lambdas = []
            for s in family_slots(m, i):
                opts = fld.half_subfield_elements() if s.half else list(range(fld.size))
                lambdas.append(int(rng.choice(opts)))
            spec = TraceCodewordSpec(tuple(lambdas), int(rng.integers(fld.size)), int(rng.integers(q)))
            word = trace_codeword(params, spec)
            assert word_in_code(word, code)
            assert word_in_code(cyclic_shift(word), code)


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
    for form, words in coset_decomposition(params):
        for (_mu, _eps), word in words:
            seen.add(word.tobytes())
            assert word_in_code(word, code)
            assert word_in_code(cyclic_shift(word), code)
    assert len(seen) == 2 ** params.dimension


def test_coset_decomposition_structure():
    params = code_params(3, 3, 1)
    cosets = list(coset_decomposition(params))
    assert len(cosets) == family_size(3, 3, 1) == 27
    all_words = set()
    for form, words in cosets:
        coset_words = {w.tobytes() for _, w in words}
        assert len(coset_words) == 81
        all_words |= coset_words
    assert len(all_words) == 3 ** 7  # pairwise disjoint union


def test_coset_decomposition_2_6_2_sizes():
    params = code_params(2, 6, 2)
    cosets = list(coset_decomposition(params))
    assert len(cosets) == 8
    _, words = cosets[3]
    assert sum(1 for _ in words) == 2 ** 7

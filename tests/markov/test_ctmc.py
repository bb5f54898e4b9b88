"""CTMC container: construction, validation, uniformization, structure."""

import numpy as np
import pytest
from scipy import sparse

from repro import CTMC
from repro.exceptions import ModelError


def simple_q():
    return np.array([[-1.0, 1.0, 0.0],
                     [2.0, -3.0, 1.0],
                     [0.0, 5.0, -5.0]])


class TestConstruction:
    def test_from_dense(self):
        m = CTMC(simple_q())
        assert m.n_states == 3
        assert m.max_output_rate == 5.0
        assert np.allclose(m.output_rates, [1.0, 3.0, 5.0])

    def test_from_sparse(self):
        m = CTMC(sparse.csr_matrix(simple_q()))
        assert m.n_transitions == 4

    def test_diagonal_is_recomputed(self):
        q = simple_q()
        q[0, 0] = 123.0  # garbage diagonal, should be overwritten
        m = CTMC(q)
        assert m.output_rates[0] == pytest.approx(1.0)

    def test_fix_diagonal_keyword_is_gone(self):
        # One construction path: there is no validate-only mode.
        with pytest.raises(TypeError):
            CTMC(simple_q(), fix_diagonal=False)

    def test_negative_rate_rejected(self):
        q = simple_q()
        q[0, 1] = -1.0
        with pytest.raises(ModelError):
            CTMC(q)

    def test_nonsquare_rejected(self):
        with pytest.raises(ModelError):
            CTMC(np.zeros((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            CTMC(np.zeros((0, 0)))

    def test_default_initial(self):
        m = CTMC(simple_q())
        assert np.allclose(m.initial, [1.0, 0.0, 0.0])

    def test_bad_initial_rejected(self):
        with pytest.raises(ModelError):
            CTMC(simple_q(), initial=np.array([0.5, 0.2, 0.2]))
        with pytest.raises(ModelError):
            CTMC(simple_q(), initial=np.array([1.5, -0.5, 0.0]))
        with pytest.raises(ModelError):
            CTMC(simple_q(), initial=np.array([1.0, 0.0]))

    def test_labels(self):
        m = CTMC(simple_q(), labels=["a", "b", "c"])
        assert m.labels == ["a", "b", "c"]
        with pytest.raises(ModelError):
            CTMC(simple_q(), labels=["a"])


def _reference_generator(generator):
    """The diagonal-fixing construction by scipy's own conversions:
    COO of the off-diagonal entries, CSR, minus ``diags`` of the row
    sums. ``CTMC`` builds the same CSR in fewer steps."""
    coo = sparse.csr_matrix(generator, dtype=np.float64).tocoo()
    off_diag = coo.row != coo.col
    off = sparse.coo_matrix(
        (coo.data[off_diag], (coo.row[off_diag], coo.col[off_diag])),
        shape=coo.shape).tocsr()
    out_rates = np.asarray(off.sum(axis=1)).ravel()
    q = (off - sparse.diags(out_rates)).tocsr()
    q.eliminate_zeros()
    q.sum_duplicates()
    return q, out_rates


def _generator_inputs():
    rng = np.random.default_rng(4)
    n = 9
    dense = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    dense[2] = 0.0  # an absorbing row
    rows, cols = rng.integers(0, n, 60), rng.integers(0, n, 60)
    vals = rng.random(60)
    vals[::5] = 0.0  # explicit zeros
    order = np.argsort(rows, kind="stable")
    unsorted_csr = sparse.csr_matrix(
        (vals[order], cols[order],
         np.searchsorted(rows[order], np.arange(n + 1))), shape=(n, n))
    from repro.models import Raid5Params, build_raid5_availability

    raid = build_raid5_availability(Raid5Params(groups=3))[0].generator
    raid_off = sparse.triu(raid, 1) + sparse.tril(raid, -1)
    return {
        "dense": dense,
        "coo-duplicates": sparse.coo_matrix((vals, (rows, cols)),
                                            shape=(n, n)),
        "csr-unsorted-duplicates": unsorted_csr,
        "raid5-G3-off-diagonal": raid_off.tocoo(),
    }


def _builders():
    from repro.models import (
        MultiprocessorParams,
        Raid5Params,
        birth_death,
        block_structured_ctmc,
        build_multiprocessor_availability,
        build_multiprocessor_reliability,
        build_raid5_availability,
        build_raid5_reliability,
        cyclic_chain,
        erlang_chain,
        mm1k_queue,
        random_ctmc,
        tandem_repair,
        two_state_availability,
    )

    def raid5(build, groups):
        return lambda: build(Raid5Params(groups=groups))

    def multiprocessor(build):
        return lambda: build(MultiprocessorParams())

    return {
        # The paper's four models.
        "raid5-availability-G20": raid5(build_raid5_availability, 20),
        "raid5-availability-G40": raid5(build_raid5_availability, 40),
        "raid5-reliability-G20": raid5(build_raid5_reliability, 20),
        "raid5-reliability-G40": raid5(build_raid5_reliability, 40),
        "multiprocessor-availability":
            multiprocessor(build_multiprocessor_availability),
        "multiprocessor-reliability":
            multiprocessor(build_multiprocessor_reliability),
        # Every chain of the model library.
        "two-state-availability": lambda: two_state_availability(),
        "birth-death": lambda: birth_death(12, 2.0, 3.0),
        "erlang-chain": lambda: erlang_chain(6, 1.5),
        "mm1k-queue": lambda: mm1k_queue(9, 1.0, 1.3),
        "cyclic-chain": lambda: cyclic_chain(7, 2.0),
        "tandem-repair": lambda: tandem_repair(4, 0.1, 1.0, coverage=0.9),
        "random-ctmc": lambda: random_ctmc(25, density=0.3, seed=3),
        "block-structured-ctmc": lambda: block_structured_ctmc(3, 6),
    }


_BUILDERS = _builders()


class TestCanonicalGenerator:
    @pytest.mark.parametrize("name", sorted(_generator_inputs()))
    def test_equals_scipy_conversions_bitwise(self, name):
        generator = _generator_inputs()[name]
        before = sparse.csr_matrix(generator, copy=True)
        want, out_rates = _reference_generator(generator)
        model = CTMC(generator)
        got = model.generator
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
        assert model.output_rates.tobytes() == \
            np.maximum(out_rates, 0.0).tobytes()
        # The caller's matrix is left as it was.
        after = sparse.csr_matrix(generator)
        assert (abs(after - before)).nnz == 0

    def test_callers_csr_arrays_are_untouched(self):
        # An unsorted float64 CSR with an explicit zero, a split rate and
        # the diagonal stored first: construction reads its arrays (which
        # it shares), never rewrites them.
        q = sparse.csr_matrix(
            ([-3.0, 0.0, 1.0, 2.0, -4.0, 4.0, 0.0],
             [0, 2, 1, 1, 1, 0, 2],
             [0, 4, 6, 7]), shape=(3, 3))
        before = [a.tobytes() for a in (q.indptr, q.indices, q.data)]
        model = CTMC(q)
        assert [a.tobytes() for a in (q.indptr, q.indices, q.data)] == \
            before
        assert np.array_equal(model.output_rates, [3.0, 4.0, 0.0])

    def test_negative_rate_in_unsorted_csr_rejected(self):
        # Row 0 holds its diagonal after a negative off-diagonal rate.
        q = sparse.csr_matrix(([-1.0, 1.0, 2.0], [1, 0, 0], [0, 2, 3]),
                              shape=(2, 2))
        with pytest.raises(ModelError, match="negative off-diagonal"):
            CTMC(q)

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_builder_input_equals_scipy_conversions_bitwise(
            self, monkeypatch, name):
        # What each model builder hands the constructor, captured before
        # the constructor runs, against the reference construction.
        seen = []
        init = CTMC.__init__

        def spy(self, generator, *args, **kwargs):
            seen.append(sparse.csr_matrix(generator, dtype=np.float64,
                                          copy=True))
            init(self, generator, *args, **kwargs)
            seen.append(self)

        monkeypatch.setattr(CTMC, "__init__", spy)
        _BUILDERS[name]()
        assert seen
        for generator, model in zip(seen[::2], seen[1::2]):
            want, out_rates = _reference_generator(generator)
            got = model.generator
            for attr in ("indptr", "indices", "data"):
                a, b = getattr(got, attr), getattr(want, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
                    attr
            assert model.output_rates.tobytes() == \
                np.maximum(out_rates, 0.0).tobytes()


class TestFromTransitions:
    def test_basic(self):
        m = CTMC.from_transitions(2, [(0, 1, 2.0), (1, 0, 3.0)], initial=1)
        assert m.output_rates[0] == 2.0
        assert np.allclose(m.initial, [0.0, 1.0])

    def test_duplicates_summed(self):
        m = CTMC.from_transitions(2, [(0, 1, 2.0), (0, 1, 1.0), (1, 0, 1.0)])
        assert m.generator[0, 1] == pytest.approx(3.0)

    def test_zero_rate_dropped(self):
        m = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 0.0)])
        assert len(m.absorbing_states()) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError):
            CTMC.from_transitions(2, [(0, 0, 1.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ModelError):
            CTMC.from_transitions(2, [(0, 5, 1.0)])

    def test_negative_rejected(self):
        with pytest.raises(ModelError):
            CTMC.from_transitions(2, [(0, 1, -1.0)])


class TestUniformize:
    def test_transition_matrix(self):
        m = CTMC(simple_q())
        dtmc, rate = m.uniformize()
        assert rate == 5.0
        p = dtmc.transition_matrix.toarray()
        expected = np.eye(3) + simple_q() / 5.0
        assert np.allclose(p, expected)

    def test_custom_rate(self):
        m = CTMC(simple_q())
        dtmc, rate = m.uniformize(10.0)
        assert rate == 10.0
        assert dtmc.transition_matrix[0, 0] == pytest.approx(0.9)

    def test_slack(self):
        m = CTMC(simple_q())
        _, rate = m.uniformize(slack=1.1)
        assert rate == pytest.approx(5.5)

    def test_too_small_rate_rejected(self):
        m = CTMC(simple_q())
        with pytest.raises(ModelError):
            m.uniformize(1.0)

    def test_rows_stochastic(self):
        m = CTMC(simple_q())
        dtmc, _ = m.uniformize()
        sums = np.asarray(dtmc.transition_matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)


class TestStructure:
    def test_absorbing_states(self):
        m = CTMC.from_transitions(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert list(m.absorbing_states()) == [2]

    def test_reachable_from(self):
        m = CTMC.from_transitions(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0),
                                      (3, 2, 1.0)])
        assert list(m.reachable_from([0])) == [0, 1]
        assert list(m.reachable_from([0, 2])) == [0, 1, 2, 3]

    def test_irreducible(self):
        m = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)])
        assert m.is_irreducible()
        m2 = CTMC.from_transitions(2, [(0, 1, 1.0)])
        assert not m2.is_irreducible()

    def test_restricted_to(self):
        m = CTMC(simple_q())
        sub = m.restricted_to([0, 1])
        assert sub.n_states == 2
        assert sub.generator[1, 0] == pytest.approx(2.0)
        # The 1 -> 2 leak is dropped, so state 1 exits at rate 2 only.
        assert sub.output_rates[1] == pytest.approx(2.0)

    def test_restricted_needs_initial_mass(self):
        m = CTMC(simple_q())  # initial mass all on state 0
        with pytest.raises(ModelError):
            m.restricted_to([1, 2])

    def test_n_transitions_excludes_diagonal(self):
        m = CTMC(simple_q())
        assert m.n_transitions == 4

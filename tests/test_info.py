import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gvlab import synth
from gvlab.core import ExemplarTable
from gvlab.errors import GvlabError
from gvlab.experiments import _cell_table, block_counts, truth_table_counts
from gvlab.info import count_entropy
from gvlab.models import VectorDataset
from gvlab.theory import _block_entropies, _label_counts, addition_rule

from dict_tables import reference_entropy, reference_marginal, table_dict
from dict_tables import table_from_dict as table_from_counts
from theory_loops import random_counts

LN2 = math.log(2.0)


def random_table(rng, max_vars=3, max_card=4, max_k=4):
    m = int(rng.integers(1, max_vars + 1))
    sizes = tuple(int(rng.integers(2, max_card + 1)) for _ in range(m))
    k = int(rng.integers(2, max_k + 1))
    counts = {}
    for config in np.ndindex(*sizes):
        for label in range(k):
            c = int(rng.integers(0, 6))
            if c:
                counts[(tuple(int(v) for v in config), label)] = c
    if not counts:
        counts[(tuple(0 for _ in sizes), 0)] = 1
    return table_from_counts(counts, sizes, k)


def block_entropies(table, ids=()):
    """``(H(label, block), H(block))`` of a table over the block ``ids``, as the
    addition rule takes them."""
    return tuple(map(float, _block_entropies(_label_counts(table, ids)[1])))


class TestEntropy:
    def test_point_mass_is_zero(self):
        table = table_from_counts({((0,), 1): 7}, (2,), 2)
        assert block_entropies(table)[0] == 0.0

    def test_uniform_binary_labels(self):
        table = table_from_counts({((0,), 0): 5, ((0,), 1): 5}, (1,), 2)
        assert block_entropies(table)[0] == pytest.approx(LN2, abs=1e-12)

    def test_uniform_four_labels(self):
        counts = {((0,), y): 3 for y in range(4)}
        table = table_from_counts(counts, (1,), 4)
        assert block_entropies(table)[0] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_variables_and_joint_marginals(self):
        counts = {((0,), 0): 1, ((1,), 0): 1, ((0,), 1): 1, ((1,), 1): 1}
        h_joint, h_variables = block_entropies(table_from_counts(counts, (2,), 2), (0,))
        assert h_variables == pytest.approx(LN2, abs=1e-12)
        assert h_joint == pytest.approx(math.log(4.0), abs=1e-12)

    def test_empty_table_rejected(self):
        table = ExemplarTable((0,), (2,), np.zeros((0, 2), dtype=np.int64),
                              np.zeros(0, dtype=np.int64), 2)
        with pytest.raises(GvlabError) as err:
            block_entropies(table)
        assert err.value.code == "empty-table"


def conditional_entropies(codes, labels):
    """``(H(label | row) per row of codes, H(label))`` by the influence ranking's one count."""
    return synth._conditional_entropies(np.array(codes, dtype=np.int64), np.array(labels))[0]


class TestConditionalEntropy:
    def test_functional_dependence_is_zero(self):
        assert conditional_entropies([[0, 0, 0, 1, 1]], [0, 0, 0, 1, 1])[0] == [0.0]

    def test_uniform_conditionals(self):
        h_cond, _ = conditional_entropies([[0, 0, 0, 0, 1, 1]], [0, 0, 1, 1, 0, 1])
        assert h_cond[0] == pytest.approx(LN2, abs=1e-12)

    def test_conditioning_on_nothing_is_label_entropy(self):
        labels = np.random.default_rng(0).integers(0, 4, 50)
        (h_cond,), h_label = conditional_entropies([np.zeros(50)], labels)
        assert h_cond == pytest.approx(h_label, abs=1e-15)

    def test_unknown_given_id_rejected(self):
        with pytest.raises(GvlabError) as err:
            synth.influence_rank(VectorDataset([[0.0]], [0], 2), [9])
        assert err.value.code == "bad-variable"


def test_conditioning_reduces_entropy_and_range():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n, k = int(rng.integers(1, 40)), int(rng.integers(2, 5))
        h_cond, h_y = conditional_entropies(rng.integers(0, 4, size=(3, n)), rng.integers(0, k, n))
        assert all(0.0 <= h <= h_y + 1e-12 for h in h_cond)
        assert h_y <= math.log(k) + 1e-12


class TestCountEntropy:
    def test_sums_each_group_axis_in_sequence(self):
        counts = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        p = counts / counts.sum()
        expected = 0.0
        for term in (-p * np.log(p)).tolist():
            expected += term
        assert count_entropy(counts, counts.sum()) == expected

    def test_zero_counts_and_empty_groups_add_nothing(self):
        assert count_entropy(np.array([0, 4, 0, 4]), 8) == pytest.approx(LN2, abs=1e-15)
        assert count_entropy(np.zeros(0), 1) == 0.0

    def test_leading_axes_are_independent_distributions(self):
        counts = np.array([[[3, 1], [0, 4]], [[2, 2], [2, 2]]])
        joint = count_entropy(counts, counts.sum(axis=(1, 2))[:, None, None], group_axes=2)
        for row, h in zip(counts, joint):
            assert h == count_entropy(row.ravel(), row.sum())

    def test_block_entropies_use_it(self):
        """The addition-rule kernel's block entropies, on criterion 05's counts,
        are this function on the summed count array."""
        laws = np.array([[9, 5, 15, 7, 9, 11, 4, 10]])
        counts = truth_table_counts(laws)
        h_pred_block, h_block = _block_entropies(block_counts(counts)[(0, 2)])
        joint = counts.sum(axis=3).reshape(256, 1, 4, 2)
        total = joint.sum(axis=(2, 3))
        assert h_pred_block.tobytes() == count_entropy(joint, total[..., None, None], 2).tobytes()
        assert h_block.tobytes() == count_entropy(joint.sum(axis=3), total[..., None]).tobytes()


def keep_ids(ids):
    """Strategy: an ordered subset of ``ids``, possibly empty."""
    return st.permutations(ids).flatmap(
        lambda perm: st.integers(0, len(perm)).map(lambda size: tuple(perm[:size])))


def one_prediction_per_configuration(table):
    """The table with each configuration's cells cut to its first label."""
    kept = {}
    for (config, label), count in table_dict(table).items():
        if all(key[0] != config for key in kept):
            kept[(config, label)] = count
    return table_from_counts(kept, table.axis_sizes, table.k)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_array_tables_match_the_dict_reference(seed, data):
    """Marginals, entropies and the addition rule on the arrays
    equal the dict loops they replaced: exactly for counts, to 1e-12 in nats."""
    table = _cell_table(random_counts(np.random.default_rng(seed)))
    keep = data.draw(keep_ids(table.variable_ids))
    rest = tuple(v for v in table.variable_ids if v not in keep)

    configs, counts = _label_counts(table, keep)
    cells = [((tuple(config), label), count) for config, row in zip(configs.tolist(), counts.tolist())
             for label, count in enumerate(row) if count]
    assert cells == sorted(reference_marginal(table, keep).items())

    ids = table.variable_ids
    for ref_ids, with_labels, h in ((), True, block_entropies(table)[0]),\
            (ids, False, block_entropies(table, ids)[1]), (ids, True, block_entropies(table, ids)[0]):
        assert h == pytest.approx(max(reference_entropy(table, ref_ids, with_labels), 0.0),
                                  abs=1e-12)
    h_label_keep, h_keep = block_entropies(table, keep)
    assert max(h_label_keep - h_keep, 0.0) == pytest.approx(
        max(reference_entropy(table, keep, True) - reference_entropy(table, keep, False), 0.0),
        abs=1e-12)

    hypothesis = one_prediction_per_configuration(table)
    if rest:
        result = addition_rule(hypothesis, keep, rest)
        task_term = (reference_entropy(hypothesis, keep, True)
                     - reference_entropy(hypothesis, keep, False))
        influence = sum(max(task_term - reference_entropy(hypothesis, keep + (v,), True)
                            + reference_entropy(hypothesis, keep + (v,), False), 0.0)
                        for v in rest)
        assert result.influence_sum == pytest.approx(influence, abs=1e-12)
        assert result.entropy_given_task == pytest.approx(max(task_term, 0.0), abs=1e-12)
    several = len({config for config, _ in table_dict(table)}) < len(table.counts)
    if rest and several:
        with pytest.raises(GvlabError) as err:
            addition_rule(table, keep, rest)
        assert err.value.code == "not-a-hypothesis"

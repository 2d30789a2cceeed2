"""The array-backed CdasSampler against a reference built from the scalar core.

The reference keeps one ``ProblemRecord`` per problem, ranks by sorted
``(alignment, bank position)`` tuples and folds outcomes with ``update_difficulty`` and
``update_competence``, so every batch, count, estimate and competence the
sampler produces must match it exactly, down to the sign of zero.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cdas.core import (
    ProblemRecord,
    alignment,
    instantaneous_difficulty,
    update_competence,
    update_difficulty,
)
from cdas.config import ExperimentConfig
from cdas.files import encode_array
from cdas.learner import ProblemBank
from cdas.sampling import CdasSampler


class ScalarCdas:
    """Post-warm-up CDAS selection and reporting, one record at a time."""

    def __init__(self, records, symmetric, competence):
        self.records = {record.id: record for record in records}
        self.symmetric = symmetric
        self.competence = competence

    def select(self, batch_size):
        competence = self.competence
        ids = list(self.records)
        scored = [
            (alignment(competence, record.difficulty), position, record.difficulty > competence)
            for position, record in enumerate(self.records.values())
        ]
        if not self.symmetric:
            return [ids[position] for _, position, _ in sorted(scored)[:batch_size]]
        easier = sorted((gap, position) for gap, position, harder in scored if not harder)
        harder = sorted((gap, position) for gap, position, harder in scored if harder)
        half = batch_size // 2
        take_easier = min(half, len(easier))
        take_harder = min(half, len(harder))
        if take_easier < half:
            take_harder = min(batch_size - take_easier, len(harder))
        elif take_harder < half:
            take_easier = min(batch_size - take_harder, len(easier))
        taken = easier[:take_easier] + harder[:take_harder]
        return [ids[position] for _, position in taken]

    def report(self, outcomes):
        before = self.competence
        for pid, rate in outcomes:
            record = self.records[pid]
            d_new = instantaneous_difficulty(before, record.difficulty, rate)
            self.records[pid] = update_difficulty(record, d_new)
        self.competence = update_competence(self.records.values())


# Few distinct values, negative zero among them, so gaps tie often.
DIFFICULTIES = st.one_of(
    st.sampled_from([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5]),
    st.floats(-2.0, 2.0, allow_subnormal=False),
)
# A bank shifted far off puts every estimate on one side of the competence,
# 0.0 before the first report or minus the mean estimate after it, and
# forces backfill.
BANK_DIFFICULTIES = st.sampled_from(
    [DIFFICULTIES, DIFFICULTIES.map(lambda d: d - 9.0), DIFFICULTIES.map(lambda d: d + 9.0)]
)
PASS_RATES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


@st.composite
def scenarios(draw):
    # Short ids in no particular order: bank order is not id order, so a
    # tie broken on the id would pick another batch.
    ids = draw(
        st.lists(
            st.text(alphabet="abz019", min_size=1, max_size=3), min_size=2, max_size=24, unique=True
        )
    )
    difficulties = draw(BANK_DIFFICULTIES)
    records = [
        ProblemRecord(
            id=pid,
            t=draw(st.integers(0, 3)),
            difficulty=draw(difficulties),
        )
        for pid in ids
    ]
    symmetric = draw(st.booleans())
    if symmetric:
        batch_size = 2 * draw(st.integers(1, len(ids) // 2))
    else:
        batch_size = draw(st.integers(1, len(ids)))
    step = draw(st.integers(0, 1))
    batch_rates = st.lists(PASS_RATES, min_size=batch_size, max_size=batch_size)
    rounds = draw(st.lists(batch_rates, min_size=1, max_size=5))
    return records, symmetric, batch_size, step, rounds


def _bits(values):
    return [float(v).hex() for v in values]


def _sampler(records, step, **fields):
    """A post-warm-up CdasSampler at ``step``, holding the records' ``t`` and ``difficulty``."""
    ids = [record.id for record in records]
    bank = ProblemBank(ids, [None] * len(ids), [0.0] * len(ids))
    config = ExperimentConfig(n_problems=len(ids), warmup=False, **fields)
    sampler = CdasSampler(config, bank, np.random.default_rng(0))
    state = sampler.state_dict()
    state["step"] = step
    state["t"] = encode_array([record.t for record in records], "<i8")
    state["difficulty"] = encode_array([record.difficulty for record in records], "<f8")
    sampler.load_state_dict(state)
    return sampler


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_array_sampler_matches_the_scalar_reference(scenario):
    records, symmetric, batch_size, step, rounds = scenario
    sampler = _sampler(records, step, batch_size=batch_size, symmetric=symmetric)
    competence = update_competence(records) if step else 0.0
    reference = ScalarCdas(records, symmetric, competence)
    assert _bits([sampler.competence_value]) == _bits([competence])
    for step, rates in enumerate(rounds, start=1):
        batch = sampler.select_batch()
        assert batch == reference.select(batch_size), step
        outcomes = list(zip(batch, rates))
        sampler.report(rates)
        reference.report(outcomes)
        got = sampler.records
        want = reference.records
        assert list(got) == list(want)
        assert [r.t for r in got.values()] == [r.t for r in want.values()], step
        assert _bits(r.difficulty for r in got.values()) == _bits(
            r.difficulty for r in want.values()
        ), step
        assert _bits([sampler.competence_value]) == _bits([reference.competence]), step


def test_negative_zero_bank_has_the_scalar_competence():
    # The scalar loop starts from 0.0, so a bank of -0.0 estimates sums to 0.0
    # and its competence is -0.0.  A restored step-1 sampler derives its
    # competence from the estimates, not the 0.0 of a sampler at step 0.
    records = [ProblemRecord(id=pid, t=1, difficulty=-0.0) for pid in "abcd"]
    sampler = _sampler(records, 1, batch_size=2)
    assert _bits([sampler.competence_value]) == _bits([update_competence(records)]) == ["-0x0.0p+0"]

"""Synthetic learner calibration and problem-bank construction."""

import hashlib
import json
import math
import re
import struct
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdas import learner
from cdas.config import ExperimentConfig
from cdas.errors import ConfigError
from cdas.files import encode_array
from cdas.learner import (
    BANK_FORMAT_VERSION,
    ProblemBank,
    SyntheticLearner,
    _quintile_tags,
    default_ability,
    generate_bank,
    load_bank,
    save_bank,
)
from cdas.sampling import CdasSampler


DATA = Path(__file__).resolve().parent / "data"


def _learner(ability, seed=0, latents=(0.0,), **fields):
    """A learner built from a config with ``ability_init`` and ``fields`` set, on a bank of ``latents``."""
    config = ExperimentConfig(ability_init=ability, **fields)
    bank = ProblemBank([f"q{i}" for i in range(len(latents))], [None] * len(latents), latents)
    return SyntheticLearner(config, bank, np.random.default_rng(seed))


def _bank(n, seed, **fields):
    """The bank of a config of ``n`` problems with ``fields`` set, drawn from seed ``seed``."""
    return generate_bank(ExperimentConfig(n_problems=n, **fields), np.random.default_rng(seed))


class TestSuccessProbability:
    def test_ability_at_latent_difficulty_is_even_odds(self):
        assert _learner(1.3).success_probability(1.3) == 0.5

    def test_logistic_value(self):
        # sigmoid(1) to the digit.
        assert _learner(1.0).success_probability(0.0) == pytest.approx(
            0.7310585786300049, abs=1e-15
        )

    def test_discrimination_scales_the_gap(self):
        gentle = _learner(1.0, discrimination=0.5).success_probability(0.0)
        steep = _learner(1.0, discrimination=4.0).success_probability(0.0)
        assert gentle < steep

    def test_harder_problem_is_less_likely(self):
        learner = _learner(0.0)
        assert learner.success_probability(1.0) < learner.success_probability(0.0)

    def test_missing_latent_difficulty_rejected(self):
        # A bank file's null latent becomes NaN, which the bank refuses.
        with pytest.raises(ConfigError, match="latent"):
            ProblemBank(["q"], [None], [None])


class TestRollouts:
    def test_empirical_rate_matches_model(self):
        # 10,000 rollouts in 40 groups of 250: the empirical pass rate should
        # sit within three standard errors of sigmoid(ability - b).
        p = 1.0 / (1.0 + math.exp(-0.7))
        learner = _learner(0.2, seed=11, rollouts=250)
        passes = sum(sum(learner.rollout_group("q", -0.5).rewards) for _ in range(40))
        standard_error = math.sqrt(p * (1.0 - p) / 10_000)
        assert abs(passes / 10_000 - p) <= 3 * standard_error

    def test_far_below_ability_groups_all_pass(self):
        learner = _learner(10.0, seed=5)
        all_pass = sum(
            learner.rollout_group("q", 0.0).pass_rate == 1.0 for _ in range(10_000)
        )
        assert all_pass / 10_000 >= 0.999

    def test_group_size_and_id(self):
        group = _learner(0.0, rollouts=6).rollout_group("x9", 0.0)
        assert group.problem_id == "x9"
        assert len(group.rewards) == 6

    def test_same_seed_same_draws(self):
        a = _learner(0.3, seed=77).rollout_group("q", 0.1)
        b = _learner(0.3, seed=77).rollout_group("q", 0.1)
        assert a.rewards == b.rewards


class TestLearnStep:
    # Counts out of the default eight rollouts: 0 and 8 are zero-gradient groups.
    def test_all_useful_moves_by_full_rate(self):
        learner = _learner(1.0, learn_rate=0.05)
        learner.learn_step([1, 3])
        assert learner.ability == pytest.approx(1.05, abs=1e-15)

    def test_all_zero_gradient_moves_nothing(self):
        learner = _learner(1.0)
        learner.learn_step([0, 8])
        assert learner.ability == 1.0

    def test_half_useful_moves_half(self):
        learner = _learner(0.0, learn_rate=0.1)
        learner.learn_step(np.array([2, 0]))
        assert learner.ability == pytest.approx(0.05, abs=1e-15)
        assert type(learner.ability) is float

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            _learner(0.0).learn_step([])

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([True, False], "bool pass counts, first True"),
            ([2, True], "bool pass count True for candidate 1; counts must be integers"),
            ([1.0, 2.0], "float64 pass counts"),
            ([2, -1], "pass count -1 for candidate 1; counts must be in \\[0, 8\\]"),
            ([9, 2], "pass count 9 for candidate 0"),
            ([[1, 2]], "non-empty batch"),
        ],
        ids=["flags", "flag-among-counts", "floats", "negative", "above-group", "two-dimensional"],
    )
    def test_counts_that_are_not_pass_counts_refused(self, counts, message):
        # Zero-gradient flags once fed this method: each True would read as a
        # count of 1, a mixed group, and invert the gain without a word.
        learner = _learner(0.5, seed=2)
        before = (learner.ability, learner.rng.bit_generator.state)
        with pytest.raises(ValueError, match=message):
            learner.learn_step(counts)
        assert (learner.ability, learner.rng.bit_generator.state) == before

    def test_ability_never_decreases(self):
        rng = np.random.default_rng(3)
        learner = _learner(-1.0, seed=8)
        previous = learner.ability
        for _ in range(200):
            learner.learn_step(rng.integers(0, learner.rollouts + 1, size=4))
            assert learner.ability >= previous
            previous = learner.ability


class TestLearnerConfig:
    def test_ability_starts_at_ability_init_or_the_banks_fifth_percentile(self):
        bank = _bank(500, 12)
        rng = np.random.default_rng(0)
        assert SyntheticLearner(ExperimentConfig(), bank, rng).ability == default_ability(bank)
        fixed = SyntheticLearner(ExperimentConfig(ability_init=0), bank, rng)
        assert type(fixed.ability) is float and fixed.ability == 0.0

    def test_bad_discrimination(self):
        with pytest.raises(ConfigError):
            _learner(0.0, discrimination=0.0)

    def test_bad_learn_rate(self):
        with pytest.raises(ConfigError):
            _learner(0.0, learn_rate=-0.1)

    def test_bad_rollouts(self):
        with pytest.raises(ConfigError):
            _learner(0.0, rollouts=1)

    def test_pass_counts_match_per_problem_rollouts(self):
        # One (B, G) draw must give the bits, and leave the stream where, B
        # separate groups would.
        latents = np.linspace(-3, 3, 25).tolist()
        batched = _learner(0.4, seed=13, latents=latents, rollouts=6)
        single = _learner(0.4, seed=13, rollouts=6)
        counts = batched.pass_counts(np.arange(len(latents)))
        assert counts.tolist() == [single.rollout_group("q", b).rewards.count(1.0) for b in latents]
        assert counts.dtype == np.int64
        assert batched.rng.bit_generator.state == single.rng.bit_generator.state
        assert batched.pass_counts([]).tolist() == []
        assert batched.rng.bit_generator.state == single.rng.bit_generator.state

    def test_pass_counts_match_success_probability_at_an_infinite_logit(self):
        # 1e308 times a gap of 4 or -2 overflows to an infinite logit, which
        # both paths cap where the sigmoid is already constant.
        latents = [-3.0, 3.0, 1.0]
        batched = _learner(1.0, seed=5, latents=latents, discrimination=1e308)
        single = _learner(1.0, seed=5, discrimination=1e308)
        probabilities = [single.success_probability(b) for b in latents]
        assert probabilities == [1.0 - sys.float_info.epsilon, sys.float_info.epsilon, 0.5]
        counts = batched.pass_counts([0, 1, 2]).tolist()
        assert counts == [single.rollout_group("q", b).rewards.count(1.0) for b in latents]
        assert counts[:2] == [batched.rollouts, 0]
        assert batched.rng.bit_generator.state == single.rng.bit_generator.state

    def test_state_round_trip_resumes_stream(self):
        # The draws follow from the generator's state alone: a learner given
        # another's state draws the same rollouts from there on.
        learner = _learner(0.4, seed=21)
        learner.rollout_group("q", 0.0)
        clone = _learner(0.4, seed=0)
        clone.rng.bit_generator.state = learner.rng.bit_generator.state
        want = learner.rollout_group("q", 0.2)
        got = clone.rollout_group("q", 0.2)
        assert got.rewards == want.rewards


class TestGenerateBank:
    def test_normal_mode_quintiles_are_balanced(self):
        bank = _bank(100, 0)
        tags = np.array(bank.level_tags)
        counts = np.bincount(tags, minlength=6)[1:]
        assert list(counts) == [20] * 5

    def test_normal_mode_tags_sort_with_latents(self):
        bank = _bank(50, 1)
        tags = [tag for _, tag in sorted(zip(bank.latent.tolist(), bank.level_tags))]
        assert tags == sorted(tags)

    def test_levels_mode_latents_are_equally_spaced(self):
        # bank_scale is the latent step between levels; ints are taken as floats.
        for scale in (1.0, 1.5, 0.1, 3, 1e300):
            bank = _bank(200, 2, bank_mode="levels", bank_scale=scale)
            for tag, latent in zip(bank.level_tags, bank.latent.tolist()):
                assert latent == (tag - 3) * scale
            assert set(bank.level_tags) == {1, 2, 3, 4, 5}

    def test_ids_are_zero_padded_and_unique(self):
        bank = _bank(12, 3)
        assert bank.ids[0] == "p00000"
        assert bank.ids[-1] == "p00011"
        assert len(set(bank.ids)) == 12
        # Past 100k problems the padding widens with the largest index.
        wide = _bank(100_001, 3)
        assert (wide.ids[0], wide.ids[-1]) == ("p000000", "p100000")

    @pytest.mark.parametrize("n", [1, 9, 10, 12, 100_001])
    def test_ids_match_the_percent_format(self, n):
        width = max(5, len(str(n - 1)))
        bank = _bank(n, 3)
        assert bank.ids == tuple(f"p%0{width}d" % i for i in range(n))

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.sampled_from([-1.0, 0.0, 2.0]), min_size=1, max_size=300),
            st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=300),
        )
    )
    def test_quintile_tags_match_a_stable_argsort(self, values):
        # Includes n < 5, where some quintiles are empty, and runs of ties.
        values = np.array(values)
        n = values.size
        expected = np.empty(n, dtype=int)
        expected[np.argsort(values, kind="stable")] = 1 + (np.arange(n) * 5) // n
        assert _quintile_tags(values).tolist() == expected.tolist()

    def test_reproducible_and_seed_sensitive(self):
        one = _bank(40, 9)
        two = _bank(40, 9)
        other = _bank(40, 10)
        assert one.content_hash() == two.content_hash()
        assert one.content_hash() != other.content_hash()

    def test_records_start_unscheduled(self):
        # The bank holds no scheduler state; a CDAS sampler on it starts every
        # problem at t = 0 with difficulty 0.0.
        bank = _bank(5, 4)
        config = ExperimentConfig(n_problems=5, batch_size=2)
        sampler = CdasSampler(config, bank, np.random.default_rng(0))
        assert sampler.state_arrays()["t"].tolist() == [0] * 5
        assert sampler.estimates.tolist() == [0.0] * 5

    def test_columns_line_up_in_bank_order(self):
        bank = _bank(5, 4)
        assert type(bank.ids) is tuple and type(bank.level_tags) is tuple
        assert bank.latent.dtype == np.float64 and not bank.latent.flags.writeable
        assert len(bank.ids) == len(bank.level_tags) == bank.latent.size == 5
        assert bank.ids == ("p00000", "p00001", "p00002", "p00003", "p00004")

    def test_bad_sizes_and_modes(self):
        with pytest.raises(ConfigError):
            _bank(0, 0)
        with pytest.raises(ConfigError):
            _bank(5, 0, bank_scale=0.0)
        with pytest.raises(ConfigError):
            _bank(5, 0, bank_mode="levels", bank_scale=-1.0)
        with pytest.raises(ConfigError):
            _bank(5, 0, bank_mode="mystery")

    def test_levels_scale_that_overflows_is_refused_by_the_bank(self):
        # Valid as a config field, but level 5 sits at twice the scale.
        config = ExperimentConfig(n_problems=50, bank_mode="levels", bank_scale=1e308)
        with pytest.raises(ConfigError, match="has no finite latent difficulty"):
            generate_bank(config, np.random.default_rng(0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_refused_before_drawing(self, value):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for mode in ("normal", "levels"):
            with pytest.raises(ConfigError, match="bank_scale: must be finite and > 0"):
                config = ExperimentConfig(n_problems=5, bank_mode=mode, bank_scale=value)
                generate_bank(config, rng)
        assert rng.bit_generator.state == before


class TestBankContainer:
    def test_lookup_and_len(self):
        bank = _bank(7, 6)
        assert len(bank) == 7
        assert bank.ids[3] == "p00003"

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError, match="duplicate problem id dup"):
            ProblemBank(["a", "dup", "dup"], [None] * 3, [0.0] * 3)
        # The first id seen a second time is named.
        with pytest.raises(ConfigError, match="duplicate problem id b in bank"):
            ProblemBank(["a", "b", "b", "a"], [None] * 4, [0.0] * 4)

    def test_missing_latent_rejected(self):
        with pytest.raises(ConfigError, match="bank problem b"):
            ProblemBank(["a", "b"], [None, None], [0.0, float("nan")])

    def test_empty_bank_rejected(self):
        with pytest.raises(ConfigError, match="at least one problem"):
            ProblemBank([], [], [])

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ConfigError, match="columns"):
            ProblemBank(["a", "b"], [1], [0.0, 0.0])
        with pytest.raises(ConfigError, match="columns"):
            ProblemBank(["a"], [1], [0.0, 0.0])

    def test_level_tags_outside_one_to_five_rejected(self):
        # A tag is written as its digit, so one that only equals a level
        # (True, 1.0) is refused as well.
        for tag in (0, 6, True, 1.0, "1"):
            with pytest.raises(ConfigError, match="level_tag"):
                ProblemBank(["a", "b"], [1, tag], [0.0, 0.0])

    @pytest.mark.parametrize(
        "bad", [0, None, b"ab", "", "a,b", "a;b", 'a"b', "a\rb", "a\nb", "\n", "a\ud800"]
    )
    def test_malformed_ids_rejected(self, bad):
        with pytest.raises(ConfigError, match=r"problem id: .* got " + re.escape(repr(bad))):
            ProblemBank(["ok", bad], [None, None], [0.0, 0.0])

    def test_first_malformed_id_is_named_mid_column(self):
        with pytest.raises(ConfigError, match=r"problem id: .* got 5$"):
            ProblemBank(["a", 5, "b"], [None] * 3, [0.0] * 3)

    def test_hash_ignores_scheduler_state(self):
        bank = _bank(8, 5)
        before = bank.content_hash()
        sampler = CdasSampler(
            ExperimentConfig(n_problems=8, batch_size=4), bank, np.random.default_rng(0)
        )
        for _ in range(3):
            batch = sampler.select_batch()
            sampler.report([0.25] * len(batch))
        assert bank.content_hash() == before

    def test_hash_known_answer(self):
        # The count and a newline, each id and a newline, a byte per tag,
        # then each latent as little-endian float64.
        expected = hashlib.sha256(b"1\na\n\x02" + struct.pack("<d", 0.5)).hexdigest()
        assert ProblemBank(["a"], [2], [0.5]).content_hash() == expected

    @pytest.mark.parametrize(
        "one, other",
        [
            ((["ab", "c"], [1, 1], [0.0, 0.0]), (["a", "bc"], [1, 1], [0.0, 0.0])),
            *(((["a"], [None], [0.5]), (["a"], [tag], [0.5])) for tag in range(1, 6)),
            ((["a"], [2], [-0.0]), (["a"], [2], [0.0])),
            ((["a", "b"], [1, 2], [0.5, 1.5]), (["b", "a"], [2, 1], [1.5, 0.5])),
            ((["a"], [2], [0.5]), (["b"], [2], [0.5])),
            ((["a"], [2], [0.5]), (["a"], [2], [0.25])),
        ],
        ids=[
            "id-split", *(f"untagged-vs-{tag}" for tag in range(1, 6)),
            "zero-sign", "swap", "id", "latent",
        ],
    )
    def test_hash_separates(self, one, other):
        assert ProblemBank(*one).content_hash() != ProblemBank(*other).content_hash()

    def test_hash_is_computed_once(self, tmp_path, monkeypatch):
        bank = _bank(20, 5)
        path = tmp_path / "bank.json"
        save_bank(bank, path)
        loaded = load_bank(path)

        def refuse(*args):
            raise AssertionError("the bank was hashed again")

        monkeypatch.setattr(learner, "hashlib", types.SimpleNamespace(sha256=refuse))
        assert loaded.content_hash() == bank.content_hash()

    def test_default_ability_is_fifth_percentile(self):
        bank = _bank(500, 12)
        expected = float(np.percentile(bank.latent, 5.0))
        assert default_ability(bank) == expected


def _bank_file(path, **columns) -> None:
    """Write a bank file of problems p0 and p1; ``columns`` replaces its keys (None drops one)."""
    bank = ProblemBank(["p0", "p1"], [1, None], [0.0, 0.5])
    payload = {
        "format_version": BANK_FORMAT_VERSION,
        "hash": bank.content_hash(),
        "ids": list(bank.ids),
        "level_tags": list(bank.level_tags),
        "true_difficulty": encode_array(bank.latent, "<f8"),
    }
    payload.update(columns)
    path.write_text(json.dumps({k: v for k, v in payload.items() if v is not None}))


class TestBankFiles:
    def test_round_trip(self, tmp_path):
        bank = _bank(30, 14, bank_mode="levels")
        path = tmp_path / "bank.json"
        save_bank(bank, path)
        stored = json.loads(path.read_text())
        assert set(stored) == {"format_version", "hash", "ids", "level_tags", "true_difficulty"}
        assert (stored["ids"], stored["level_tags"]) == (list(bank.ids), list(bank.level_tags))
        loaded = load_bank(path)
        assert loaded.content_hash() == bank.content_hash()
        assert (loaded.ids, loaded.level_tags) == (bank.ids, bank.level_tags)
        assert loaded.latent.tobytes() == bank.latent.tobytes()

    def test_written_file_loads_as_written(self, tmp_path):
        _bank_file(tmp_path / "bank.json")
        bank = load_bank(tmp_path / "bank.json")
        assert (bank.ids, bank.level_tags, bank.latent.tolist()) == (
            ("p0", "p1"), (1, None), [0.0, 0.5]
        )

    def test_tampered_file_rejected(self, tmp_path):
        path = tmp_path / "bank.json"
        _bank_file(path, true_difficulty=encode_array([0.0, 1.5], "<f8"))
        with pytest.raises(ConfigError, match="content hash mismatch"):
            load_bank(path)

    @pytest.mark.parametrize("stored", ["0" * 64, None], ids=["wrong", "missing"])
    def test_hash_is_required_and_compared(self, tmp_path, stored):
        path = tmp_path / "bank.json"
        _bank_file(path, hash=stored)
        with pytest.raises(ConfigError, match=f"bank file {re.escape(str(path))}: .*hash"):
            load_bank(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bank.json"
        _bank_file(path, format_version=99)
        with pytest.raises(ConfigError, match="unsupported format_version 99"):
            load_bank(path)

    def test_version_1_file_refused_by_its_version(self, tmp_path):
        # Written by save_bank when the hash was taken over repr text lines.
        old = DATA / "bank_format1.json"
        with pytest.raises(ConfigError, match="unsupported format_version 1"):
            load_bank(old)
        # Read as the current version, it has none of the columns.
        path = tmp_path / "bank.json"
        current = {**json.loads(old.read_text()), "format_version": BANK_FORMAT_VERSION}
        path.write_text(json.dumps(current))
        with pytest.raises(ConfigError, match="missing field 'ids'"):
            load_bank(path)

    def test_version_2_file_refused_by_its_version(self):
        # Written by save_bank when a bank file held one JSON object per problem.
        with pytest.raises(ConfigError, match="unsupported format_version 2"):
            load_bank(DATA / "bank_format2.json")

    @pytest.mark.parametrize("field", ["id", "level_tag", "true_difficulty"])
    def test_record_missing_a_field_rejected(self, tmp_path, field):
        # Each record field is now a column: ids, level_tags, true_difficulty.
        column = {"id": "ids", "level_tag": "level_tags"}.get(field, field)
        path = tmp_path / "bank.json"
        _bank_file(path, **{column: None})
        with pytest.raises(ConfigError, match=f"missing field '{column}'"):
            load_bank(path)

    # The record format's nine cases, each restated on its column and kept
    # under its old id: a record list that is not a list, a record that is
    # not an object, a latent that is not a number (now text that is not
    # base64 or not 8 bytes a problem, or not text), a latent past the
    # largest float, and three bad ids.
    @pytest.mark.parametrize(
        "records, message",
        [
            ({"ids": "p0"}, "'ids' and 'level_tags' must be lists"),
            ({"level_tags": {"p0": 1}}, "'ids' and 'level_tags' must be lists"),
            ({"true_difficulty": "hard"}, "true_difficulty: 3 bytes where 2 values of 8"),
            ({"true_difficulty": "0.5"}, "true_difficulty: invalid base64"),
            ({"true_difficulty": True}, "true_difficulty: must be a base64 string"),
            (
                {"true_difficulty": encode_array([0.0, np.inf], "<f8")},
                "bank problem p1 has no finite latent difficulty",
            ),
            ({"ids": [0, "p1"]}, "problem id: .* got 0"),
            ({"ids": ["p;0", "p1"]}, "problem id: .* got 'p;0'"),
            ({"ids": [["p0"], "p1"]}, r"problem id: .* got \['p0'\]"),
        ],
        ids=["None", *(f"records{i}" for i in range(1, 9))],
    )
    def test_malformed_records_rejected(self, tmp_path, records, message):
        path = tmp_path / "bank.json"
        _bank_file(path, **records)
        with pytest.raises(ConfigError, match=f"bank file {re.escape(str(path))}: {message}"):
            load_bank(path)

    @pytest.mark.parametrize(
        "tags, message",
        [
            ([1, 6], "level_tag: must be in 1..5 or None, got 6"),
            ([1, True], "level_tag: must be in 1..5 or None, got True"),
            ([1], "bank columns disagree: 2 ids, 1 level tags, 2 latent"),
        ],
        ids=["six", "bool", "short"],
    )
    def test_bad_level_tags_rejected(self, tmp_path, tags, message):
        path = tmp_path / "bank.json"
        _bank_file(path, level_tags=tags)
        with pytest.raises(ConfigError, match=message):
            load_bank(path)

    def test_large_bank_round_trips_bit_for_bit(self, tmp_path):
        bank = _bank(100_000, 21)
        path = tmp_path / "bank.json"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert (loaded.ids, loaded.level_tags) == (bank.ids, bank.level_tags)
        assert loaded.latent.tobytes() == bank.latent.tobytes()
        assert loaded.content_hash() == bank.content_hash()

import copy
import dataclasses
import json
import logging
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import robustspec
import robustspec.detection
import robustspec.gaussian_model
from conftest import MASTER_SEED, count_form_builds, patch_everywhere
from robustspec.cli import main as cli_main
from robustspec.detection import MixtureWeights, _operating_characteristics, derive_seed
from robustspec.errors import ConfigError
from robustspec.gaussian_model import build_model_sets
from robustspec.harness import (
    CSV_COLUMNS,
    MAX_TRIALS,
    MODES,
    ExperimentConfig,
    parse_config,
    payload_rows,
    run_experiment,
    write_report,
)
from robustspec.minimax import minimize_mixture_weights

MINIMAL = {
    "mode": "exponent",
    "psds": [{"label": "one", "family": "flat", "params": {"level": 1.0}}],
}

FLAT_TRIO = {
    "mode": "dominance",
    "grid_size": 256,
    "psds": [
        {"label": "weak", "family": "flat", "params": {"level": 1.0}},
        {"label": "mid", "family": "flat", "params": {"level": 2.0}},
        {"label": "strong", "family": "flat", "params": {"level": 3.0}},
    ],
}


def config_text(doc):
    return json.dumps(doc)


def one_psd(family, **params):
    return {"psds": [{"label": "a", "family": family, "params": params}]}


FAMILY_PARAMS = {
    "flat": ("level",),
    "raised_cosine": ("peak", "center", "width"),
    "rational_ar1": ("variance", "pole"),
    "tabulated": ("values",),
}

# small values of every JSON type, plus numbers past the double range
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3000),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)

ABSENT = object()  # a key left out of the document


def present(entries):
    return {key: value for key, value in entries if value is not ABSENT}


def mostly(draw, good):
    """A draw of `good` nine times in ten, else junk or ABSENT."""
    roll = draw(st.integers(0, 19))  # shrinks toward the good value
    return draw(good) if roll < 18 else draw(JUNK) if roll == 18 else ABSENT


@st.composite
def psd_blocks(draw, grid_size):
    family = draw(st.sampled_from(sorted(FAMILY_PARAMS)))
    names = list(FAMILY_PARAMS[family])
    if draw(st.integers(0, 9)) == 9:  # a foreign or reserved parameter name
        names.append(draw(st.sampled_from(["level", "pole", "label", "family"])))
    number = st.floats(-0.2, 3.0)
    values = st.lists(number, min_size=grid_size - 1, max_size=grid_size)
    params = present(
        (name, mostly(draw, values if name == "values" else number)) for name in names
    )
    return present([
        ("label", mostly(draw, st.sampled_from(["a", "b", "c"]))),
        ("family", mostly(draw, st.just(family))),
        ("params", mostly(draw, st.just(params))),
    ])


@st.composite
def config_documents(draw):
    """JSON documents built around the known keys and PSD blocks: up to two
    top-level keys are junk or left out, and the rest are mostly well formed."""
    grid_size = draw(st.integers(8, 40))
    label = lambda block: repr(block.get("label"))  # noqa: E731
    good = {
        "mode": st.sampled_from(["exponent", "dominance", "simulate"]),
        "grid_size": st.just(grid_size),
        "sigma2": st.floats(0.01, 4.0),
        "alpha": st.floats(0.01, 0.99),
        "seed": st.integers(-5, 5),
        "trials": st.integers(900, 2000),
        "n_values": st.sets(st.integers(1, 64), min_size=1).map(sorted),
        "candidate_label": st.sampled_from([None, "a", "z"]),
        "psds": st.lists(psd_blocks(grid_size), min_size=1, max_size=3, unique_by=label),
        "output_path": st.just("out.json"),
        "gridsize": st.just(ABSENT),  # an unknown key, present only when spoiled
    }
    spoiled = draw(st.sets(st.sampled_from(sorted(good)), max_size=2))
    return present(
        (key, draw(JUNK | st.just(ABSENT) if key in spoiled else value))
        for key, value in good.items()
    )


class TestParseConfig:
    def test_minimal_defaults(self):
        config = parse_config(config_text(MINIMAL))
        assert config.grid_size == 4096
        assert config.sigma2 == 1.0
        assert config.alpha == 0.1
        assert config.seed == 0
        assert config.trials == 10000
        assert config.n_values == [64, 256]
        assert config.candidate_label is None

    def test_alpha_bounds_named(self):
        doc = dict(MINIMAL, alpha=1.2)
        with pytest.raises(ConfigError, match=r"alpha.*\(0,1\)"):
            parse_config(config_text(doc))

    def test_duplicate_labels_rejected(self):
        doc = copy.deepcopy(MINIMAL)
        doc["psds"].append({"label": "one", "family": "flat", "params": {"level": 2.0}})
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(config_text(doc))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(config_text(dict(MINIMAL, gridsize=64)))
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(config_text(dict(MINIMAL, tilt_grid=[-1.0, 0.0])))
        doc = copy.deepcopy(MINIMAL)
        doc["psds"][0]["extra"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(config_text(doc))

    def test_invalid_json_and_mode(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")
        with pytest.raises(ConfigError, match="mode"):
            parse_config(config_text(dict(MINIMAL, mode="explore")))

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf"), 10**400],
        ids=["nan", "inf", "-inf", "int-beyond-double"],
    )
    @pytest.mark.parametrize("key", ["sigma2", "alpha"])
    def test_non_finite_numbers_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(config_text(dict(MINIMAL, **{key: value})))

    def test_trials_floor_for_monte_carlo_modes(self):
        doc = dict(MINIMAL, mode="simulate", trials=500)
        with pytest.raises(ConfigError, match="trials"):
            parse_config(config_text(doc))

    def test_n_values_must_increase(self):
        with pytest.raises(ConfigError, match="n_values"):
            parse_config(config_text(dict(MINIMAL, n_values=[64, 64])))

    def test_candidate_label_must_exist(self):
        with pytest.raises(ConfigError, match="candidate_label"):
            parse_config(config_text(dict(MINIMAL, candidate_label="two")))


class TestExperimentConfig:
    # a config checks itself however it is built: these reach the runners
    # when only the JSON path checks them
    @pytest.mark.parametrize(
        "key,value",
        [
            ("mode", "bogus"),
            ("grid_size", 4),
            ("sigma2", float("nan")),
            ("alpha", 7.0),
            ("seed", "x"),
            ("trials", 999),
            ("n_values", [5, 3]),
            ("candidate_label", "zzz"),
            ("output_path", ""),
        ],
    )
    def test_bad_field_raises_naming_it(self, key, value):
        doc = {**MINIMAL, "mode": "simulate", "trials": 2000, key: value}
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**doc)

    def test_replace_is_checked(self):
        config = parse_config(config_text(MINIMAL))
        with pytest.raises(ConfigError, match="trials"):
            dataclasses.replace(config, mode="simulate", trials=5)

    def test_trials_bounded_above(self):
        config = ExperimentConfig(**MINIMAL, trials=MAX_TRIALS)
        assert config.trials == MAX_TRIALS
        with pytest.raises(ConfigError, match="trials"):
            dataclasses.replace(config, trials=MAX_TRIALS + 1)

    def test_fields_cannot_be_assigned(self):
        config = ExperimentConfig(**MINIMAL)
        assert config == parse_config(config_text(MINIMAL))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.mode = "full"

    def test_psd_families_and_params_are_checked_by_the_run(self, tmp_path):
        # construction checks a PSD block's keys and types; its family and
        # parameter values are checked when the run builds the PSDs
        config = ExperimentConfig(
            mode="exponent", psds=[{"label": "a", "family": "nope", "params": {}}]
        )
        with pytest.raises(ConfigError, match=r"psds\[0\]"):
            run_experiment(config)
        # so a --grid override can make a tabulated block fit its grid
        doc = {
            "mode": "exponent",
            "grid_size": 4096,
            "psds": [{"label": "t", "family": "tabulated", "params": {"values": [1.0] * 64}}],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["exponent", "--config", str(path), "--grid", "64"]) == 0


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @seed(MASTER_SEED)
    @given(config_documents())
    def test_config_parses_or_raises_config_error(self, doc):
        try:
            parse_config(json.dumps(doc)).build_psds()
        except ConfigError:
            pass


class TestModes:
    def test_exponent_payload(self):
        doc = {
            "mode": "exponent",
            "grid_size": 4096,
            "psds": [
                {"label": "weak", "family": "flat", "params": {"level": 1.0}},
                {"label": "strong", "family": "flat", "params": {"level": 3.0}},
            ],
        }
        record = run_experiment(parse_config(config_text(doc)))
        values = {e["label"]: e["value"] for e in record.payload["exponents"]}
        assert values["weak"] == pytest.approx(0.096574, abs=1e-6)
        assert values["strong"] == pytest.approx(0.318147, abs=1e-6)
        assert record.payload["genie"]["label"] == "weak"
        assert record.payload["genie"]["value"] == pytest.approx(0.096574, abs=1e-6)

    def test_dominance_payload(self):
        record = run_experiment(parse_config(config_text(FLAT_TRIO)))
        assert record.payload["dominated"] is True
        assert record.payload["candidate_label"] == "weak"
        assert record.payload["report"]["verdict"] is True

    def test_dominance_none(self):
        doc = {
            "mode": "dominance",
            "grid_size": 256,
            "psds": [
                {
                    "label": "lo",
                    "family": "raised_cosine",
                    "params": {"peak": 2.0, "center": 0.0, "width": 1.2},
                },
                {
                    "label": "hi",
                    "family": "raised_cosine",
                    "params": {"peak": 2.0, "center": 3.14159265, "width": 1.2},
                },
            ],
        }
        record = run_experiment(parse_config(config_text(doc)))
        assert record.payload["dominated"] is False

    def test_simulate_mode_and_determinism(self):
        doc = dict(
            FLAT_TRIO,
            mode="simulate",
            trials=2000,
            n_values=[8, 16],
            candidate_label="weak",
            seed=5,
        )
        a = run_experiment(parse_config(config_text(doc)))
        b = run_experiment(parse_config(config_text(doc)))
        assert a.payload == b.payload
        assert len(a.payload["estimates"]) == 3
        for est in a.payload["estimates"]:
            assert len(est["rows"]) == 2

    def test_minimax_mode(self):
        doc = dict(
            FLAT_TRIO,
            mode="minimax",
            trials=5000,
            n_values=[16, 32],
            candidate_label="weak",
        )
        record = run_experiment(parse_config(config_text(doc)))
        for cert in record.payload["kkt"]:
            assert cert["certificate"]["singleton_verified"] is True
        assert record.payload["optimizer"]["weights"][0] >= 0.99

    def test_full_mode_determinism(self):
        doc = dict(FLAT_TRIO, mode="full", trials=2000, n_values=[8, 16], seed=11)
        a = run_experiment(parse_config(config_text(doc)))
        b = run_experiment(parse_config(config_text(doc)))
        assert a.payload == b.payload
        assert a.payload["dominance"]["candidate_label"] == "weak"
        assert a.payload["ordering_consistent"] is True
        assert set(a.payload["simulation"]) == {"weak", "mid", "strong"}

    def test_full_payload_keys_match_with_and_without_a_dominated_member(self):
        ar1 = [
            {"label": f"ar{i}", "family": "rational_ar1",
             "params": {"variance": 1.0, "pole": pole}}
            for i, pole in enumerate((0.6, -0.6))
        ]
        common = dict(FLAT_TRIO, mode="full", trials=2000, n_values=[8])
        dominated = run_experiment(parse_config(config_text(common))).payload
        free = run_experiment(parse_config(config_text(dict(common, psds=ar1)))).payload
        assert (dominated["dominance"]["dominated"], free["dominance"]["dominated"]) == (
            True, False,
        )
        assert list(free) == list(dominated)
        assert free["optimizer"] is None

    def test_full_mode_certifies_the_dominated_member(self):
        psds = FLAT_TRIO["psds"]
        doc = dict(
            FLAT_TRIO, mode="full", trials=2000, n_values=[8, 16], seed=3,
            psds=[psds[2], psds[0], psds[1]],
        )
        payload = run_experiment(parse_config(config_text(doc))).payload
        assert payload["dominance"]["candidate_label"] == "weak"
        assert [cert["n"] for cert in payload["kkt"]] == [8, 16]
        for cert in payload["kkt"]:
            assert cert["certificate"]["candidate_index"] == 1
            assert cert["certificate"]["singleton_verified"] is True

    def test_full_ordering_against_a_non_flat_member(self, rng):
        # On flat members every singleton statistic is increasing in y^T y,
        # so every detector calibrates to one rule and the worst-case
        # ordering compares copies of one test.  An AR(1) member, drawn in
        # the ranges of the benchmark's `full` workload, gives a detector
        # with a different rule, so the ordering compares two tests.
        rho = rng.uniform(0.2, 0.5)
        pole = rng.uniform(0.3, 0.7)
        variance = rho * (1.0 + pole) / (1.0 - pole) * rng.uniform(1.2, 1.6)
        psds = [
            {"label": "weak", "family": "flat", "params": {"level": rho}},
            {"label": "ar1", "family": "rational_ar1",
             "params": {"variance": variance, "pole": pole}},
            {"label": "strong", "family": "flat",
             "params": {"level": rho * rng.uniform(1.5, 2.5)}},
        ]
        doc = {
            "mode": "full", "grid_size": 1024, "sigma2": 1.0, "alpha": 0.05,
            "seed": MASTER_SEED, "trials": 20000, "n_values": [16, 32], "psds": psds,
        }
        payload = run_experiment(parse_config(config_text(doc))).payload
        assert payload["dominance"]["candidate_label"] == "weak"
        simulation = payload["simulation"]
        assert simulation["ar1"]["worst_case"] != simulation["weak"]["worst_case"]
        assert payload["ordering_consistent"] is True

    def test_full_mode_draws_each_block_once(self, monkeypatch):
        # each block seeds one generator, and every tile of the block is
        # drawn from it at the stream's n
        original = robustspec.gaussian_model.block_generator
        keys = []
        widths = {}

        def recording(seed, block_index):
            generator = original(seed, block_index)
            key = (seed, block_index)
            keys.append(key)

            def standard_normal(shape):
                widths.setdefault(key, set()).add(shape[1])
                return generator.standard_normal(shape)

            return SimpleNamespace(standard_normal=standard_normal)

        patch_everywhere(monkeypatch, original, recording)
        doc = dict(FLAT_TRIO, mode="full", trials=5000, n_values=[8, 16], seed=11)
        run_experiment(parse_config(config_text(doc)))
        # one white stream of 2 blocks at the largest n: the false-alarm null,
        # every truth's signal and the optimizer's frozen null (singleton
        # detectors draw no calibration stream)
        assert all(len(widths[key]) == 1 for key in keys)
        assert sorted(n for key in keys for n in widths[key]) == [16] * 2
        assert len(set(keys)) == len(keys)

    def test_full_mode_seeds_no_frozen_null(self, monkeypatch):
        original = robustspec.gaussian_model.block_generator
        seeds = []

        def recording(seed, block_index):
            seeds.append(seed)
            return original(seed, block_index)

        patch_everywhere(monkeypatch, original, recording)
        doc = dict(FLAT_TRIO, mode="full", trials=5000, n_values=[8, 16], seed=11)
        run_experiment(parse_config(config_text(doc)))
        mc = derive_seed(derive_seed(11, "full"), "mc")
        assert derive_seed(11, "frozen-h0") not in seeds
        assert set(seeds) == {derive_seed(mc, "h0")}

    def test_full_optimizer_reads_the_engine_null(self):
        doc = dict(FLAT_TRIO, mode="full", trials=5000, n_values=[8, 16], seed=11)
        config = parse_config(config_text(doc))
        payload = run_experiment(config).payload
        model_sets = build_model_sets(config.build_psds().members, config.sigma2, [8, 16])
        _, null = _operating_characteristics(
            model_sets, [MixtureWeights.singleton(k, 3) for k in range(3)], range(3),
            config.trials, config.alpha, derive_seed(11, "full"), first_rows=True,
        )
        weights, value, trace = minimize_mixture_weights(null, 8, MixtureWeights.uniform(3))
        assert payload["optimizer"] == {
            "n": 8, "weights": [float(w) for w in weights.w], "value": value, "trace": trace,
        }

    def test_full_mode_logs_aliasing(self, caplog):
        # n = 100 > grid_size = 64 repeats reflected lags: every member's
        # model at n = 100 says so, and the run still completes
        doc = dict(FLAT_TRIO, mode="full", grid_size=64, trials=1000, n_values=[8, 100])
        with caplog.at_level(logging.WARNING, logger="robustspec"):
            payload = run_experiment(parse_config(config_text(doc))).payload
        assert payload["dominance"]["candidate_label"] == "weak"
        aliased = [r.getMessage() for r in caplog.records if "grid_size 64" in r.getMessage()]
        assert sorted(message.split("'")[1] for message in aliased) == ["mid", "strong", "weak"]

    def test_full_mode_builds_each_precision_once(self, monkeypatch):
        # each scored model's whitener is built once per scorer, never per
        # block: once per model at the largest n for the engine's one ladder
        # scorer, whose null rows the optimizer reads
        builds = count_form_builds(monkeypatch)
        doc = dict(FLAT_TRIO, mode="full", trials=5000, n_values=[8, 16], seed=11)
        run_experiment(parse_config(config_text(doc)))
        assert sorted(builds) == [16] * 3

    def test_full_mode_leaves_no_inverse_on_the_models(self, monkeypatch):
        # the forms live in the scorers only: a model keeps no n x n matrix
        # but the Cholesky factor it was sampled through
        original = robustspec.gaussian_model.build_model
        models = []

        def recording(psd, sigma2, n):
            models.append(original(psd, sigma2, n))
            return models[-1]

        patch_everywhere(monkeypatch, original, recording)
        doc = dict(FLAT_TRIO, mode="full", trials=2000, n_values=[8, 16], seed=11)
        run_experiment(parse_config(config_text(doc)))
        assert len(models) == 6
        for model in models:
            square = [
                name for name, value in vars(model).items()
                if isinstance(value, np.ndarray) and value.shape == (model.n, model.n)
            ]
            assert square in ([], ["factor"]), square

    @pytest.mark.parametrize("mode", ["minimax", "full"])
    def test_each_model_built_once(self, monkeypatch, mode):
        original = robustspec.gaussian_model.build_model
        builds = Counter()

        def recording(psd, sigma2, n):
            builds[psd.label, n] += 1
            return original(psd, sigma2, n)

        patch_everywhere(monkeypatch, original, recording)
        doc = dict(FLAT_TRIO, mode=mode, trials=2000, n_values=[8, 16], seed=11)
        run_experiment(parse_config(config_text(doc)))
        labels = [psd["label"] for psd in FLAT_TRIO["psds"]]
        assert builds == Counter({(label, n): 1 for label in labels for n in (8, 16)})

    def test_minimax_streams_the_frozen_null(self, monkeypatch):
        scorer = robustspec.detection._Scorer
        original = scorer.log_ratios
        rows = []

        def recording(self, y):
            rows.append(len(y))
            return original(self, y)

        monkeypatch.setattr(scorer, "log_ratios", recording)
        doc = dict(FLAT_TRIO, mode="minimax", trials=10000, n_values=[8], seed=11)
        run_experiment(parse_config(config_text(doc)))
        assert sum(rows) == 10000
        assert max(rows) <= robustspec.gaussian_model.TILE_ROWS

    def test_simulate_and_full_report_one_ladder_shape(self):
        doc = dict(FLAT_TRIO, trials=2000, n_values=[8, 16], seed=11)
        simulate = run_experiment(parse_config(config_text(dict(doc, mode="simulate"))))
        full = run_experiment(parse_config(config_text(dict(doc, mode="full"))))
        entries = list(full.payload["simulation"].values())
        assert all(list(entry) == ["worst_case"] for entry in entries)
        ladders = simulate.payload["estimates"] + [entry["worst_case"] for entry in entries]
        assert {tuple(ladder) for ladder in ladders} == {
            ("truth_label", "rows", "slope", "ci_half_width")
        }

    def test_config_echo_completeness(self):
        record = run_experiment(parse_config(config_text(MINIMAL)))
        echo = record.config
        for key in (
            "mode", "grid_size", "sigma2", "alpha", "seed",
            "trials", "n_values", "psds",
        ):
            assert key in echo
        assert record.seed == echo["seed"]


class TestReports:
    def test_json_roundtrip(self, tmp_path):
        record = run_experiment(parse_config(config_text(MINIMAL)))
        path = tmp_path / "report.json"
        write_report(record, str(path), "json")
        back = json.loads(path.read_text())
        assert back["payload"] == record.payload
        assert back["config"] == record.config
        assert back["toolkit_version"] == record.toolkit_version

    def test_csv_header_and_cardinality(self, tmp_path):
        doc = dict(
            FLAT_TRIO,
            mode="simulate",
            trials=2000,
            n_values=[8, 12, 16],
            candidate_label="weak",
            psds=FLAT_TRIO["psds"][:2],
        )
        record = run_experiment(parse_config(config_text(doc)))
        path = tmp_path / "report.csv"
        write_report(record, str(path), "csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 3 * 2  # (n ladder) x (truth members)

    def test_csv_17_digit_floats(self, tmp_path):
        record = run_experiment(parse_config(config_text(MINIMAL)))
        path = tmp_path / "report.csv"
        write_report(record, str(path), "csv")
        import re

        body = path.read_text()
        assert re.search(r"0\.0965735902\d{6,}", body)

    def test_empty_payload_is_header_only(self, tmp_path):
        doc = {
            "mode": "dominance",
            "grid_size": 256,
            "psds": [
                {
                    "label": "lo",
                    "family": "raised_cosine",
                    "params": {"peak": 2.0, "center": 0.0, "width": 1.2},
                },
                {
                    "label": "hi",
                    "family": "raised_cosine",
                    "params": {"peak": 2.0, "center": 3.14159265, "width": 1.2},
                },
            ],
        }
        record = run_experiment(parse_config(config_text(doc)))
        path = tmp_path / "empty.csv"
        write_report(record, str(path), "csv")
        assert path.read_text().strip() == ",".join(CSV_COLUMNS)

    def test_bad_format_rejected(self, tmp_path):
        record = run_experiment(parse_config(config_text(MINIMAL)))
        with pytest.raises(ConfigError):
            write_report(record, str(tmp_path / "x"), "yaml")

    def test_payload_rows_respect_frozen_columns(self):
        record = run_experiment(parse_config(config_text(MINIMAL)))
        for row in payload_rows(record.mode, record.payload):
            assert set(row) == set(CSV_COLUMNS)


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, MINIMAL)
        out = tmp_path / "report.json"
        assert cli_main(["exponent", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "exponent"

    def test_full_run_imports_no_scipy(self, tmp_path):
        # a fresh interpreter, so no other test's import of scipy counts
        doc = dict(FLAT_TRIO, mode="full", grid_size=64, trials=1000, n_values=[8])
        cfg = self.write_config(tmp_path, doc)
        out = tmp_path / "report.json"
        script = (
            "import sys\n"
            "from robustspec.cli import main\n"
            f"assert main(['full', '--config', {cfg!r}, '--out', {str(out)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(robustspec.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        assert json.loads(out.read_text())["mode"] == "full"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_non_finite_report_writes_nothing(self, tmp_path, fmt, to_file):
        # sigma2 = 1e-320 overflows values / sigma2, so the exponent is NaN.
        # A fresh interpreter, since pytest turns the RuntimeWarning of the
        # overflow into an error before the report is written.
        doc = dict(MINIMAL, sigma2=1e-320, grid_size=64)
        cfg = self.write_config(tmp_path, doc)
        out = tmp_path / "report.out"
        args = ["exponent", "--config", cfg, "--format", fmt]
        args += ["--out", str(out)] if to_file else []
        src = str(Path(robustspec.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "robustspec.cli", *args],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert done.returncode == 3, done.stderr
        assert "numerical failure" in done.stderr and "non-finite" in done.stderr
        assert done.stdout == ""
        assert not out.exists()

    def test_stdout_when_no_out(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, MINIMAL)
        assert cli_main(["exponent", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["payload"]["genie"]["label"] == "one"

    def test_subcommand_overrides_config_mode(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, dict(FLAT_TRIO, mode="exponent"))
        assert cli_main(["dominance", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "dominance"

    def test_seed_and_grid_overrides(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, MINIMAL)
        assert cli_main(["exponent", "--config", cfg, "--seed", "9", "--grid", "128"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 9
        assert doc["config"]["grid_size"] == 128

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, dict(MINIMAL, alpha=2.0))
        assert cli_main(["exponent", "--config", cfg]) == 2
        cfg2 = self.write_config(tmp_path, MINIMAL)
        assert cli_main(["exponent", "--config", cfg2, "--grid", "4"]) == 2

    @pytest.mark.parametrize(
        "mode,change,field",
        [
            ("exponent", one_psd("flat", level=-1.0), "psds[0]"),
            ("exponent", one_psd("flat", level="x"), "psds[0]"),
            ("exponent", one_psd("flat", level=True), "psds[0]"),
            ("exponent", one_psd("pink"), "psds[0]"),
            ("exponent", one_psd("tabulated", values=[1.0, 2.0]), "psds[0]"),
            ("simulate", {"n_values": [0, 8], "trials": 2000}, "n_values"),
            ("simulate", {"n_values": [-3], "trials": 2000}, "n_values"),
            ("exponent", {"trials": 0}, "trials"),
            ("dominance", {"trials": -5}, "trials"),
            ("simulate", {"mode": "exponent", "trials": 5}, "trials"),
            ("full", {"alpha": 1e-6, "trials": 1000}, "trials"),
            ("simulate", {"alpha": 0.999, "trials": 50000}, "alpha"),
            ("exponent", {"candidate_label": [1]}, "candidate_label"),
            ("exponent", {"n_values": 5}, "n_values"),
            ("exponent", {"output_path": 12}, "output_path"),
            ("exponent", {"grid_size": 10**12}, "grid_size"),
            ("exponent", {"grid_size": 2**22 + 1}, "grid_size"),
            ("exponent", {"n_values": [8, 10**9]}, "n_values"),
            ("full", {"trials": 10**10}, "trials"),
        ],
        ids=[
            "negative-param", "string-param", "psd-param-bool", "unknown-family",
            "tabulated-length", "n-zero", "n-negative", "trials-zero", "trials-negative",
            "trials-below-subcommand-floor", "trials-below-calibration-floor",
            "trials-below-calibration-floor-upper-alpha", "label-not-string",
            "n-values-not-list",
            "output-path-not-string", "grid-huge", "grid-above-cap", "n-huge",
            "trials-huge",
        ],
    )
    def test_bad_config_exits_two_naming_the_field(
        self, tmp_path, capsys, mode, change, field
    ):
        # `change` may set the document's mode; the subcommand is `mode`
        cfg = self.write_config(tmp_path, {**MINIMAL, "mode": mode, **change})
        assert cli_main([mode, "--config", cfg]) == 2
        assert field in capsys.readouterr().err

    def test_config_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert cli_main(["full", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_grid_override_is_bounded(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, MINIMAL)
        assert cli_main(["exponent", "--config", cfg, "--grid", str(10**12)]) == 2
        assert "grid_size" in capsys.readouterr().err

    def test_report_is_strict_json(self, tmp_path):
        # n=32 at this level leaves too few misses: the row is censored
        doc = {
            "mode": "simulate", "grid_size": 64, "trials": 1000, "alpha": 0.1,
            "seed": 3, "n_values": [8, 32],
            "psds": [{"label": "hot", "family": "flat", "params": {"level": 3.0}}],
        }
        out = tmp_path / "report.json"
        cfg = self.write_config(tmp_path, doc)
        assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads(out.read_text(), parse_constant=reject)
        rows = report["payload"]["estimates"][0]["rows"]
        assert [r["censored"] for r in rows] == [False, True]
        assert rows[1]["miss_log"] is None

    # three flat detectors, all of which threshold y^T y: at n = 64 none
    # misses often enough under the stronger truths f2 and f3
    CENSORED_TRUTHS = {
        "grid_size": 1024, "alpha": 0.02, "trials": 20000, "n_values": [64], "seed": 3,
        "psds": [
            {"label": f"f{lv}", "family": "flat", "params": {"level": float(lv)}}
            for lv in (1, 2, 3)
        ],
    }

    def test_full_worst_case_skips_truths_censored_at_every_n(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = self.write_config(tmp_path, dict(self.CENSORED_TRUTHS, mode="full"))
        assert cli_main(["full", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["payload"]
        for entry in payload["simulation"].values():
            assert entry["worst_case"]["truth_label"] == "f1"
            assert entry["worst_case"]["slope"] > 0.0
        assert payload["ordering_consistent"] is True

    def test_simulate_writes_null_slope_for_truth_censored_at_every_n(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = self.write_config(tmp_path, dict(self.CENSORED_TRUTHS, mode="simulate"))
        assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        estimates = json.loads(out.read_text())["payload"]["estimates"]
        assert [e["slope"] is None for e in estimates] == [False, True, True]
        assert [e["ci_half_width"] is None for e in estimates] == [False, True, True]

    @pytest.mark.parametrize("text", ['"sigma2": NaN', '"sigma2": Infinity'])
    def test_non_finite_config_exit_two(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(MINIMAL)[:-1] + ", " + text + "}")
        assert cli_main(["exponent", "--config", str(path)]) == 2
        assert "sigma2" in capsys.readouterr().err

    def test_numerical_failure_exit_three(self, tmp_path, capsys):
        doc = {
            "mode": "simulate",
            "grid_size": 256,
            "trials": 2000,
            "n_values": [64],
            "psds": [{"label": "hot", "family": "flat", "params": {"level": 5.0}}],
        }
        cfg = self.write_config(tmp_path, doc)
        assert cli_main(["simulate", "--config", cfg]) == 3
        assert "simulate" in capsys.readouterr().err

    def test_io_failure_exit_four(self, tmp_path, capsys):
        assert cli_main(["exponent", "--config", str(tmp_path / "missing.json")]) == 4
        cfg = self.write_config(tmp_path, MINIMAL)
        bad_out = str(tmp_path / "no" / "such" / "dir" / "x.json")
        assert cli_main(["exponent", "--config", cfg, "--out", bad_out]) == 4

    @pytest.mark.parametrize("mode", list(MODES))
    def test_stdout_prints_the_report_text_of_out(self, tmp_path, capsys, mode):
        cfg = self.write_config(tmp_path, dict(FLAT_TRIO, trials=2000, n_values=[8, 16]))
        texts = {}
        for fmt in ("csv", "json"):
            out = tmp_path / f"report.{fmt}"
            assert cli_main([mode, "--config", cfg, "--format", fmt]) == 0
            printed = capsys.readouterr().out.encode()
            assert cli_main([mode, "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
            texts[fmt] = printed, out.read_bytes()
        printed, written = texts["csv"]
        assert printed.startswith(",".join(CSV_COLUMNS).encode()) and printed == written
        # the JSON records differ only in their wall time
        printed, written = (json.loads(text) for text in texts["json"])
        assert printed.pop("wall_time_ms") >= 0.0 and written.pop("wall_time_ms") >= 0.0
        assert printed == written

    def test_csv_format_flag(self, tmp_path):
        cfg = self.write_config(tmp_path, MINIMAL)
        out = tmp_path / "r.csv"
        assert cli_main(["exponent", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
        assert out.read_text().startswith(",".join(CSV_COLUMNS))

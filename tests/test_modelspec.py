import json
from pathlib import Path

import pytest

from betweenu import (
    BlackBoxOracle,
    DisappointmentAversion,
    ExpectedUtility,
    ImplicitKernel,
    WeightedUtility,
    load_model,
    model_from_spec,
)
from betweenu.modelspec import KINDS

README = Path(__file__).resolve().parents[1] / "README.md"


class TestModelFromSpec:
    def test_expected_utility(self):
        m = model_from_spec({"kind": "expected_utility", "u": [0.0, 0.4, 1.0]})
        assert isinstance(m, ExpectedUtility)
        assert m.n_outcomes == 3

    def test_weighted_utility(self):
        m = model_from_spec(
            {"kind": "weighted_utility", "u": [0.0, 1.0], "w": [1.0, 2.0]}
        )
        assert isinstance(m, WeightedUtility)

    def test_disappointment_aversion(self):
        m = model_from_spec(
            {"kind": "disappointment_aversion", "u": [0.0, 1.0], "beta": 2.0}
        )
        assert isinstance(m, DisappointmentAversion)
        assert m.beta == 2.0

    def test_implicit_kernel(self):
        m = model_from_spec(
            {
                "kind": "implicit_kernel",
                "t_grid": [0.0, 1.0],
                "phi": [[0.0, 0.2], [0.8, 1.0]],
            }
        )
        assert isinstance(m, ImplicitKernel)

    def test_fixture_kinds(self):
        assert isinstance(model_from_spec({"kind": "cyclic_oracle"}), BlackBoxOracle)
        assert isinstance(
            model_from_spec({"kind": "jump", "threshold": 0.4, "drop": 0.2}),
            BlackBoxOracle,
        )
        assert isinstance(model_from_spec({"kind": "quadratic"}), BlackBoxOracle)

    def test_eps_pref_override(self):
        m = model_from_spec(
            {"kind": "expected_utility", "u": [0.0, 1.0], "eps_pref": 1e-7}
        )
        assert m.eps_pref == 1e-7

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_spec({"kind": "prospect_theory"})

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"kind": "expected_utility", "u": [0, 0.4, 1], "eps-pref": 1e-3}, "eps-pref"),
            ({"kind": "quadratic", "matrx": [[1.0, 0.0], [0.0, 1.0]]}, "matrx"),
            ({"kind": "cyclic_oracle", "u": [0.0, 1.0]}, "u"),
            ({"kind": "disappointment_aversion", "u": [0.0, 1.0], "beta": 1.0, "w": [1, 1]}, "w"),
        ],
    )
    def test_unknown_fields_rejected_naming_them(self, spec, field):
        with pytest.raises(ValueError, match=f"has no field '{field}'"):
            model_from_spec(spec)

    def test_readme_schema_builds(self):
        # Every description of the README's schema block, read one after another.
        text = README.read_text(encoding="utf-8")
        block = text.split("### Model description schema", 1)[1]
        block = block.split("```json\n", 1)[1].split("```", 1)[0]
        decoder, specs, at = json.JSONDecoder(), [], 0
        while block[at:].strip():
            at = len(block) - len(block[at:].lstrip())
            spec, at = decoder.raw_decode(block, at)
            specs.append(spec)
        assert [spec["kind"] for spec in specs] == list(KINDS)
        for spec in specs:
            model_from_spec(spec)

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            model_from_spec({"kind": "expected_utility"})
        with pytest.raises(ValueError):
            model_from_spec({"kind": "weighted_utility", "u": [0.0, 1.0]})
        with pytest.raises(ValueError):
            model_from_spec({"kind": "implicit_kernel"})


class TestLoadModel:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"kind": "expected_utility", "u": [0.0, 1.0]}))
        m = load_model(str(path))
        assert isinstance(m, ExpectedUtility)

    def test_bad_json_raises_value_error_family(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_model(str(path))


NOT_NUMBERS = (
    ({"kind": "expected_utility", "u": [0.0, 1.0], "eps_pref": None}, "eps_pref"),
    ({"kind": "expected_utility", "u": [0.0, 1.0], "eps_pref": [1e-9]}, "eps_pref"),
    ({"kind": "disappointment_aversion", "u": [0.0, 1.0], "beta": None}, "beta"),
    ({"kind": "disappointment_aversion", "u": [0.0, 1.0], "beta": {"value": 1}}, "beta"),
    ({"kind": "jump", "threshold": [0.5]}, "threshold"),
    ({"kind": "jump", "drop": None}, "drop"),
    ({"kind": "weighted_utility", "u": [0.0, 1.0], "w": {"a": 1}}, "w"),
    ({"kind": "weighted_utility", "u": [0.0, 1.0], "w": [1.0, None]}, "w"),
    ({"kind": "quadratic", "matrix": [[1.0, {}], [0.0, 1.0]]}, "matrix"),
)

BOOLEANS = (
    ({"kind": "expected_utility", "u": [0.0, 1.0], "eps_pref": True}, "eps_pref"),
    ({"kind": "disappointment_aversion", "u": [0.0, 1.0], "beta": False}, "beta"),
    ({"kind": "expected_utility", "u": [False, True]}, "u"),
    ({"kind": "jump", "drop": True}, "drop"),
)


class TestFieldTypes:
    @pytest.mark.parametrize("spec, field", NOT_NUMBERS + BOOLEANS)
    def test_non_numbers_rejected_naming_the_field(self, spec, field):
        with pytest.raises(ValueError, match=f"field '{field}'"):
            model_from_spec(spec)

    @pytest.mark.parametrize("spec, field", NOT_NUMBERS[:1] + BOOLEANS[:1])
    def test_cli_exits_with_input_error(self, tmp_path, capsys, spec, field):
        from betweenu.cli import main

        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        assert main(["check", "--model", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    def test_integers_accepted(self):
        m = model_from_spec({"kind": "disappointment_aversion", "u": [0, 1], "beta": 2})
        assert m.beta == 2.0

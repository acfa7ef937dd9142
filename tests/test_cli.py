import json
from fractions import Fraction as F

import pytest

from sixvb import pipeline
from sixvb.cli import main
from sixvb.fixtures import fixture_text
from sixvb.exact import parse_rational


@pytest.fixture
def figure_path(tmp_path):
    path = tmp_path / "figure.json"
    path.write_text(fixture_text("figure_lattice.json"), encoding="utf-8")
    return str(path)


@pytest.fixture
def line_path(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(
        json.dumps(
            {
                "n": 1,
                "lines": [
                    {"start": 2, "end": 1, "reflected": True, "rapidity": "1/3"}
                ],
                "q": "2",
            }
        ),
        encoding="utf-8",
    )
    return str(path)


class TestValidate:
    def test_ok_fixture(self, figure_path, capsys):
        assert main(["validate", figure_path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_json_output(self, figure_path, capsys):
        assert main(["validate", figure_path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"ok": True, "violations": []}

    def test_violations_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "n": 1,
                    "lines": [
                        {"start": 2, "end": 1, "reflected": False, "rapidity": "1"}
                    ],
                    "q": "1",
                }
            ),
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 1
        assert "non-generic" in capsys.readouterr().out

    def test_malformed_file_exit_two(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", str(path)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2


class TestCompute:
    def test_single_config_value(self, line_path, capsys):
        assert main(["compute", line_path, "--alpha", "2", "--beta", "2"]) == 0
        out = capsys.readouterr().out
        assert "direct=5/7" in out and "aba=5/7" in out and "cba=5/7" in out
        assert "agreement: True" in out

    def test_default_reference_config(self, line_path, capsys):
        assert main(["compute", line_path, "--method", "direct"]) == 0
        assert "direct=1" in capsys.readouterr().out

    def test_json_round_trip_is_exact(self, line_path, capsys):
        assert main(["compute", line_path, "--all-configs", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["agreement"] is True
        values = {m: [parse_rational(row["z"][m]) for row in data["configs"]] for m in data["methods"]}
        assert set(values) == {"direct", "aba", "cba"}
        assert F(5, 7) in values["direct"]
        assert values["direct"] == values["aba"] == values["cba"]

    def test_figure_all_configs_agree(self, figure_path, capsys):
        assert main(["compute", figure_path, "--all-configs", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["agreement"] is True
        assert len(data["configs"]) == 256

    def test_agreement_lists_no_disagreements(self, line_path, capsys):
        assert main(["compute", line_path, "--all-configs", "--json"]) == 0
        assert "disagreements" not in json.loads(capsys.readouterr().out)

    @staticmethod
    def perturb_aba(monkeypatch, indices):
        real = pipeline._TABLES["aba"]

        def perturbed(spec, configs):
            values = real(spec, configs)
            for i in indices:
                values[i] += 1
            return values

        monkeypatch.setitem(pipeline._TABLES, "aba", perturbed)

    def test_disagreement_lists_every_route_value(self, line_path, monkeypatch, capsys):
        self.perturb_aba(monkeypatch, [3])
        assert main(["compute", line_path, "--all-configs", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["agreement"] is False
        assert data["disagreements"] == [
            {"alpha": [2], "beta": [2], "z": {"direct": "5/7", "aba": "12/7", "cba": "5/7"}}
        ]

    def test_disagreements_keep_the_first_ten(self, figure_path, monkeypatch, capsys):
        self.perturb_aba(monkeypatch, range(256))
        assert main(["compute", figure_path, "--all-configs", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["disagreements"] == data["configs"][:10]

    def test_bad_labels_exit_two(self, line_path):
        assert main(["compute", line_path, "--alpha", "3", "--beta", "1"]) == 2
        assert main(["compute", line_path, "--alpha", "1,2", "--beta", "1"]) == 2
        assert main(["compute", line_path, "--alpha", "1"]) == 2

    def test_invalid_spec_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "n": 1,
                    "lines": [
                        {"start": 2, "end": 1, "reflected": False, "rapidity": "1"}
                    ],
                    "q": "2",
                }
            ),
            encoding="utf-8",
        )
        assert main(["compute", str(path)]) == 2


class TestStrictInput:
    """Lattice fields keep their JSON types; nothing is coerced."""

    @staticmethod
    def write(tmp_path, line, n=1):
        path = tmp_path / "lattice.json"
        line = {"start": 2, "end": 1, "reflected": False, "rapidity": "1/3", **line}
        path.write_text(json.dumps({"n": n, "lines": [line], "q": "2"}), encoding="utf-8")
        return str(path)

    def test_non_bool_reflected_exit_two(self, tmp_path):
        path = self.write(tmp_path, {"reflected": "false"})
        assert main(["validate", path]) == 2
        assert main(["compute", path]) == 2

    @pytest.mark.parametrize(
        "line, n",
        [({"start": 2.9}, 1), ({"end": True}, 1), ({}, "1"), ({}, True)],
        ids=["float-start", "bool-end", "string-n", "bool-n"],
    )
    def test_non_integer_field_exit_two(self, tmp_path, line, n):
        path = self.write(tmp_path, line, n)
        assert main(["validate", path]) == 2
        assert main(["compute", path]) == 2


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--suite", "baxter", "--draws", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "baxter_equations" in out and "pass" in out

    def test_weights_suite(self, capsys):
        assert main(["verify", "--suite", "weights", "--draws", "3", "--seed", "1"]) == 0


class TestBench:
    def test_small_table(self, capsys):
        assert main(["bench", "--nmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "direct" in out and out.count("\n") >= 3

    def test_guard(self, capsys):
        assert main(["bench", "--nmax", "7"]) == 2

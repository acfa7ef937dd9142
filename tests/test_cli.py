import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixvb import pipeline
from sixvb.cli import main
from sixvb.errors import InvalidSpecError
from sixvb.fixtures import figure_lattice, fixture_text
from sixvb.exact import parse_rational
from sixvb.lattice import all_configs, spec_from_dict

from dense_reference import report_dict
from test_golden import GOLDEN, _lattice_text


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
        assert main(["compute", line_path, "--alpha", " 2 ", "--beta", "2\t"]) == 0
        assert "direct=5/7" in capsys.readouterr().out

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

    def test_empty_lattice_is_its_own_reference(self, tmp_path, capsys):
        """With no lines the one config is the reference, chain index 0."""
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 0, "lines": [], "q": "1/3"}), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["compute", str(path), "--all-configs", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["configs"] == [
            {"alpha": [], "beta": [], "z": {"direct": "1", "aba": "1", "cba": "1"}}
        ]
        assert data["agreement"] is True

    def test_agreement_lists_no_disagreements(self, line_path, capsys):
        assert main(["compute", line_path, "--all-configs", "--json"]) == 0
        assert "disagreements" not in json.loads(capsys.readouterr().out)

    @staticmethod
    def perturb_aba(monkeypatch, indices):
        real = pipeline.sweep

        def perturbed(spec, configs, route):
            values = real(spec, configs, route)
            if route is pipeline.ROUTES["aba"]:
                for i in indices:
                    values[i] += 1
            return values

        monkeypatch.setattr(pipeline, "sweep", perturbed)

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
        for label in ("0_1", "01", "+2", "\uff12"):
            assert main(["compute", line_path, "--alpha", label, "--beta", "1"]) == 2
            assert main(["compute", line_path, "--alpha", "2", "--beta", label]) == 2

    @pytest.mark.parametrize(
        "labels", [["--alpha=--", "--beta=1,1,1,1"], ["--alpha=1,1,1,1", "--beta=--"]]
    )
    def test_double_dash_label_exits_two(self, tmp_path, capsys, labels):
        """argparse before 3.13 hands ``--alpha=--`` over as [], not as '--'."""
        path = tmp_path / "initial.json"
        path.write_text(fixture_text("initial_condition.json"), encoding="utf-8")
        assert main(["compute", str(path), *labels]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be a comma list of 1/2, got '--'" in captured.err

    @pytest.mark.parametrize(
        "labels",
        [
            ["--alpha", "2,2", "--beta", "1,1"],
            ["--alpha", "2,1,1,1", "--beta", "1,1,1,2"],
            ["--alpha", "2,1,1,1"],
            ["--beta", "1,1,1,2"],
        ],
    )
    def test_all_configs_with_labels_exit_two(self, figure_path, capsys, labels):
        assert main(["compute", figure_path, "--all-configs", *labels]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --all-configs cannot be combined with --alpha/--beta" in captured.err

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


class TestJsonLayout:
    """``--json`` prints one compact JSON object on one line."""

    def test_compute_prints_one_line_of_the_report(self, figure_path, capsys):
        assert main(["compute", figure_path, "--all-configs", "--json"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        printed = json.loads(out)
        report = report_dict(pipeline.compute_report(figure_lattice(), list(all_configs(4))))
        del printed["timings_s"], report["timings_s"]
        assert printed == json.loads(json.dumps(report))

    @pytest.mark.parametrize("lattice, method", sorted({k[:2] for k in GOLDEN if k[2] == "json"}))
    def test_compute_prints_the_json_dumps_layout(self, tmp_path, capsys, lattice, method):
        """The hand-written report is what ``json.dumps`` gives for its parse."""
        path = tmp_path / "lattice.json"
        path.write_text(_lattice_text(lattice), encoding="utf-8")
        assert main(["compute", str(path), "--all-configs", "--method", method, "--json"]) == 0
        out = capsys.readouterr().out
        assert json.dumps(json.loads(out)) + "\n" == out

    @pytest.mark.parametrize("violation", [False, True])
    def test_validate_prints_one_line(self, tmp_path, capsys, violation):
        path = tmp_path / "line.json"
        line = {"start": 2, "end": 1, "reflected": False, "rapidity": "1" if violation else "1/3"}
        path.write_text(json.dumps({"n": 1, "lines": [line], "q": "2"}), encoding="utf-8")
        assert main(["validate", str(path), "--json"]) == int(violation)
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert json.loads(out)["ok"] is not violation

    def test_text_output_unchanged(self, line_path, capsys):
        assert main(["compute", line_path, "--all-configs"]) == 0
        out = re.sub(r"=\d+\.\d{3}s", "=Ts", capsys.readouterr().out)
        assert out == (
            "alpha=1 beta=1  direct=1 aba=1 cba=1\n"
            "alpha=1 beta=2  direct=0 aba=0 cba=0\n"
            "alpha=2 beta=1  direct=0 aba=0 cba=0\n"
            "alpha=2 beta=2  direct=5/7 aba=5/7 cba=5/7\n"
            "# methods: direct, aba, cba; agreement: True; direct=Ts aba=Ts cba=Ts\n"
        )


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

    def test_deeply_nested_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert main(["compute", str(path)]) == 2
        assert "malformed lattice file" in capsys.readouterr().err


_RATIONALS = st.sampled_from(["2/7", "1/0", "1/2", " 5/3", "3/-4"])
_LEAF = st.none() | st.booleans() | st.integers(-9, 9) | st.floats() | st.text(max_size=4) | _RATIONALS


def _nested(depth):
    """A JSON value nested at most ``depth`` levels deep."""
    if depth == 0:
        return _LEAF
    inner = _nested(depth - 1)
    return _LEAF | st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


def _slots(data):
    """(container, key) of every value in a JSON document, the root excluded."""
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield data, key
        yield from _slots(value)


def _like(value):
    """A JSON value of the same type as ``value``, so that well-formed files
    with violations are drawn too."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(-9, 9)
    return _RATIONALS if isinstance(value, str) else _nested(3)


@st.composite
def _mutated_fixture(draw):
    """``initial_condition.json`` with one to three fields dropped, replaced by
    random JSON values or by values of their own type, or replaced whole."""
    data = json.loads(fixture_text("initial_condition.json"))
    if draw(st.integers(0, 9)) == 0:
        return draw(_nested(3))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_slots(data))))
        action = draw(st.sampled_from(["drop", "replace", "same-type"]))
        if action == "drop":
            del container[key]
        else:
            container[key] = draw(_nested(3) if action == "replace" else _like(container[key]))
    return data


def _labels_ok(text, n):
    fields = [f.strip() for f in text.split(",")]
    return len(fields) == n and set(fields) <= {"1", "2"}


_LABELS = st.none() | st.sampled_from(["1,1,1,1", "2,1,1,2", "1, 2 ,2,1"]) | st.text("12, x-", max_size=9)


class TestFuzz:
    """Mutated lattice files and label strings, run through ``main`` in process."""

    @given(
        data=_mutated_fixture(),
        alpha=_LABELS,
        beta=_LABELS,
        method=st.sampled_from(["direct", "aba", "cba", "all"]),
    )
    @settings(max_examples=150, deadline=None)
    # a zero denominator is the one malformed rational that is not a ValueError
    @example(
        data={**json.loads(fixture_text("initial_condition.json")), "q": "1/0"},
        alpha=None,
        beta=None,
        method="all",
    )
    # argparse before 3.13 reads --alpha=-- as []
    @example(
        data=json.loads(fixture_text("initial_condition.json")),
        alpha="--",
        beta="1,1,1,1",
        method="all",
    )
    def test_exit_codes(self, tmp_path_factory, data, alpha, beta, method):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        try:
            n, expected = spec_from_dict(data).n, 0
        except InvalidSpecError:
            expected = 1
        except (ValueError, ZeroDivisionError):
            expected = 2
        assert main(["validate", str(path)]) == expected
        labels = [f"--{k}={v}" for k, v in (("alpha", alpha), ("beta", beta)) if v is not None]
        code = main(["compute", str(path), f"--method={method}", *labels])
        if expected:
            assert code == 2  # compute needs a valid spec
        else:  # and --alpha with --beta or neither, each N fields of 1 or 2
            given = [v for v in (alpha, beta) if v is not None]
            ok = len(given) != 1 and all(_labels_ok(v, n) for v in given)
            assert code == (0 if ok else 2)


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--suite", "baxter", "--draws", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "baxter_equations" in out and "pass" in out

    def test_weights_suite(self, capsys):
        assert main(["verify", "--suite", "weights", "--draws", "3", "--seed", "1"]) == 0

    @pytest.mark.parametrize("draws", ["0", "-3"])
    @pytest.mark.parametrize("suite", ["baxter", "invariance"])
    def test_non_positive_draws_exit_two(self, capsys, suite, draws):
        assert main(["verify", "--suite", suite, "--draws", draws]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: --draws must be at least 1" in captured.err


class TestBench:
    def test_small_table(self, capsys):
        assert main(["bench", "--nmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "direct" in out and out.count("\n") >= 3

    def test_disagreement_exits_one_and_names_n(self, capsys, monkeypatch):
        """A route that is off by the reference component on every other
        key of the N=2 sweep makes that row disagree."""
        cba = pipeline.ROUTES["cba"]

        def perturbed(spec, keys):
            table = dict(cba(spec, keys))
            if spec.n == 2:
                for k in keys:
                    if k:
                        table[k] = table.get(k, 0) + table[0]
            return table

        monkeypatch.setitem(pipeline.ROUTES, "cba", perturbed)
        assert main(["bench", "--nmax", "3"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "# the routes disagree at N = 2"

    def test_guard(self, capsys):
        assert main(["bench", "--nmax", "7"]) == 2
        err = capsys.readouterr().err
        assert "--nmax must lie in 1..6" in err and "prime rapidity denominator per line" in err
        assert "2^(2N)" not in err

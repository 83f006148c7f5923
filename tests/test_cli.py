import json

import pytest

from subtv import parse_poset
from subtv.cli import build_parser, parse_sampler_spec, run_cli
from subtv.errors import UsageError
from subtv.instances import generate_instance, instance_name, instance_seed

FIGURE1 = '{"elements": 4, "relations": [[1,2],[1,3],[2,4]]}\n'
ANTICHAIN3 = '{"elements": 3, "relations": []}\n'


@pytest.fixture
def figure1_path(tmp_path):
    path = tmp_path / "figure1.json"
    path.write_text(FIGURE1)
    return str(path)


@pytest.fixture
def antichain3_path(tmp_path):
    path = tmp_path / "anti3.json"
    path.write_text(ANTICHAIN3)
    return str(path)


def _json_report(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def test_defaults_applied(figure1_path):
    args = build_parser().parse_args(["estimate", figure1_path, "--sampler", "uniform"])
    assert args.seed == 0
    assert args.format == "table"
    assert args.zeta == 0.3 and args.delta == 0.2


def test_missing_instance_is_usage_error():
    with pytest.raises(UsageError):
        build_parser().parse_args(["estimate", "--sampler", "uniform"])
    assert run_cli(["estimate", "--sampler", "uniform"]) == 1


def test_bad_zeta_is_usage_error(figure1_path):
    assert run_cli(["estimate", figure1_path, "--sampler", "uniform", "--zeta", "1.5"]) == 1


def test_unknown_flag_rejected(figure1_path):
    assert run_cli(["estimate", figure1_path, "--sampler", "uniform", "--frobnicate"]) == 1


def test_unknown_sampler_spec_rejected(figure1_path):
    assert run_cli(["estimate", figure1_path, "--sampler", "mystery"]) == 1
    with pytest.raises(UsageError):
        parse_sampler_spec("biased:1,2", 4)
    with pytest.raises(UsageError):
        parse_sampler_spec("biased:1,-2,3,4", 4)


def test_estimate_json_report(figure1_path, capsys):
    code = run_cli(
        [
            "estimate",
            figure1_path,
            "--sampler",
            "biased-equal",
            "--zeta",
            "0.3",
            "--delta",
            "0.2",
            "--seed",
            "1",
            "--format",
            "json",
        ]
    )
    assert code == 0
    report = _json_report(capsys)
    assert report["dim"] == 2
    assert report["params"]["alpha"] == 67
    assert 0.0 <= report["estd_dtv"] < 1.0
    assert report["verdict"] is None
    assert report["seed"] == 1
    assert not report["partial"]
    for field in ("instance", "dim", "estd_dtv", "samples", "verdict", "params", "seed", "wall_time"):
        assert field in report


def test_test_accepts_uniform_and_reports_parameters(figure1_path, capsys):
    code = run_cli(
        [
            "test",
            figure1_path,
            "--sampler",
            "uniform",
            "--epsilon",
            "0.01",
            "--eta",
            "0.61",
            "--delta",
            "0.1",
            "--seed",
            "7",
            "--format",
            "json",
        ]
    )
    assert code == 0
    report = _json_report(capsys)
    assert report["verdict"] == "A"
    assert report["params"]["threshold"] == pytest.approx(0.31)
    assert report["params"]["zeta"] == pytest.approx(0.3)


def test_test_rejects_far_sampler(antichain3_path, capsys):
    code = run_cli(
        [
            "test",
            antichain3_path,
            "--sampler",
            "biased:1,100,10000",
            "--seed",
            "3",
            "--format",
            "json",
        ]
    )
    assert code == 3
    assert _json_report(capsys)["verdict"] == "R"


def test_oracle_dtv_output(figure1_path, capsys):
    code = run_cli(["oracle-dtv", figure1_path, "--p", "biased-equal", "--q", "uniform"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1/6 ≈ 0.166667"


def test_budget_exhaustion_gives_partial_report(figure1_path, capsys):
    code = run_cli(
        [
            "estimate",
            figure1_path,
            "--sampler",
            "uniform",
            "--max-samples",
            "5000",
            "--format",
            "json",
        ]
    )
    assert code == 2
    report = _json_report(capsys)
    assert report["partial"] is True
    assert report["samples"] >= 5000
    assert report["wall_time"] > 0


def test_bad_threads_or_budget_is_usage_error(figure1_path):
    for command in ("estimate", "test"):
        for flag in (["--threads", "0"], ["--max-samples", "-5"]):
            assert run_cli([command, figure1_path, "--sampler", "uniform", *flag]) == 1


def test_cli_determinism_including_threads(figure1_path, capsys):
    argv = [
        "estimate",
        figure1_path,
        "--sampler",
        "biased-equal",
        "--seed",
        "11",
        "--format",
        "json",
    ]
    assert run_cli(argv) == 0
    first = _json_report(capsys)
    assert run_cli(argv) == 0
    second = _json_report(capsys)
    assert run_cli(argv + ["--threads", "3"]) == 0
    third = _json_report(capsys)
    for rep in (first, second, third):
        rep.pop("wall_time")
        rep["params"].pop("threads")
    assert first == second == third


def test_table_format_row(figure1_path, capsys):
    assert run_cli(["estimate", figure1_path, "--sampler", "uniform", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["instance", "dim", "estd_dtv", "#samples", "A/R"]
    row = lines[1].split()
    assert row[0] == figure1_path
    assert row[1] == "2"
    assert 0.0 <= float(row[2]) < 1.0
    assert int(row[3]) > 0
    assert row[4] == "-"


def test_fraction_weights_in_sampler_spec(figure1_path, capsys):
    kind, weights = parse_sampler_spec("biased:1,2,1,2/3", 4)
    assert kind == "biased"
    assert weights[3] == pytest.approx(2 / 3)
    code = run_cli(
        ["estimate", figure1_path, "--sampler", "biased:1,2,1,2/3", "--seed", "0",
         "--format", "json"]
    )
    assert code == 0
    assert 0.0 <= _json_report(capsys)["estd_dtv"] < 1.0


def test_encode_cnf_subcommand(antichain3_path, tmp_path, capsys):
    out = tmp_path / "anti3.cnf"
    assert run_cli(["encode-cnf", antichain3_path, "--cnf-out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p cnf 3 6"
    assert len(lines) == 7


def test_gen_is_reproducible_and_parseable(tmp_path, capsys):
    doc1 = generate_instance("avgdeg", 3, 8, 2)
    doc2 = generate_instance("avgdeg", 3, 8, 2)
    assert doc1 == doc2
    assert doc1["name"] == "avgdeg_3_008_2"
    poset = parse_poset(json.dumps(doc1))
    assert poset.k == 8

    out = tmp_path / "inst.json"
    assert run_cli(["gen", "--family", "bipartite", "--param", "0.2", "--size", "8",
                    "--index", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["name"] == "bipartite_0.2_008_4"
    parse_poset(out.read_text())


def test_gen_to_stdout(capsys):
    assert run_cli(["gen", "--family", "avgdeg", "--param", "5", "--size", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["elements"] == 6


def test_instance_seed_depends_only_on_name():
    assert instance_seed(instance_name("avgdeg", 3, 8, 2)) == instance_seed("avgdeg_3_008_2")
    assert instance_seed("avgdeg_3_008_2") != instance_seed("avgdeg_3_008_3")

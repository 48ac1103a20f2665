import hashlib
import json
import math
import sys
from fractions import Fraction

import pytest

from qmeasure import bernoulli as be
from qmeasure import cli
from qmeasure.checks import coin_theory, three_path_theory
from qmeasure.cli import main
from qmeasure.core import theory_to_json


@pytest.fixture()
def three_path_file(tmp_path):
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(theory_to_json(three_path_theory())))
    return str(path)


@pytest.fixture()
def coin_file(tmp_path):
    path = tmp_path / "coin.json"
    path.write_text(json.dumps(theory_to_json(coin_theory(Fraction(1, 3)))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_valid(capsys, three_path_file):
    code, out, _ = run(capsys, "validate", "--theory", three_path_file)
    assert code == 0
    assert "valid" in out


def test_validate_invalid_exits_one(capsys, tmp_path):
    doc = {
        "histories": ["a", "b"],
        "measure": {"type": "table",
                    "values": {"0x0": "0", "0x1": "-1", "0x2": "1", "0x3": "1"}},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", "--theory", str(path))
    assert code == 1
    assert "positivity" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "--theory", "/no/such/file.json")
    assert code == 1
    assert "error" in err


def test_malformed_json_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", "--theory", str(path))
    assert code == 1


def test_measure_outputs(capsys, three_path_file):
    code, out, _ = run(
        capsys, "measure", "--theory", three_path_file,
        "--mu", "0x5", "--mu", "0x3",
        "--interference", "0x2,0x4", "--level", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == {"0x5": "4", "0x3": "0"}
    assert doc["interference"] == [{"events": "0x2,0x4", "value": "-2"}]
    assert doc["level"] == 2


def test_measure_requires_a_request(capsys, three_path_file):
    code, _, err = run(capsys, "measure", "--theory", three_path_file)
    assert code == 1


def test_primitives_three_path(capsys, three_path_file):
    code, out, _ = run(capsys, "primitives", "--theory", three_path_file, "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"dual": "0x5"}]


def test_primitives_cap_exceeded_exits_two(capsys, tmp_path):
    n = 17
    doc = {
        "histories": [f"g{i}" for i in range(n)],
        "measure": {
            "type": "decoherence",
            "matrix": [
                [[f"1/{n}" if i == j else "0", "0"] for j in range(n)]
                for i in range(n)
            ],
        },
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "primitives", "--theory", str(path))
    assert code == 2


def test_partition_checks(capsys, three_path_file):
    code, out, _ = run(
        capsys, "partition", "--theory", three_path_file,
        "--blocks", "0x5,0x2", "--check", "classical-m", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"classical-m": True}
    code, out, _ = run(
        capsys, "partition", "--theory", three_path_file,
        "--blocks", "0x3,0x4", "--check", "classical-m", "--format", "json",
    )
    assert json.loads(out) == {"classical-m": False}
    code, out, _ = run(
        capsys, "partition", "--theory", three_path_file,
        "--blocks", "0x5,0x2", "--check", "decoherent", "--format", "json",
    )
    assert json.loads(out) == {"decoherent": False}


def test_partition_principle(capsys, three_path_file):
    code, out, _ = run(
        capsys, "partition", "--theory", three_path_file, "--principle", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["blocks"] == ["0x5", "0x2"]
    assert doc["fat_duals"] == ["0x5"]
    assert doc["uncovered"] == ["0x2"]


def test_partition_needs_a_mode(capsys, three_path_file):
    code, _, err = run(capsys, "partition", "--theory", three_path_file)
    assert code == 1


def test_coin_h_epsilon(capsys):
    code, out, _ = run(
        capsys, "coin", "h-epsilon", "--n", "1000", "--p", "1/2", "--eps", "1/1000",
    )
    assert code == 0
    assert out.strip() == "450"


def test_coin_h_epsilon_none(capsys):
    code, out, _ = run(capsys, "coin", "h-epsilon", "--n", "2", "--p", "1/2", "--eps", "1/1000")
    assert code == 0
    assert out.strip() == "none"


def test_coin_straddle(capsys):
    code, out, _ = run(capsys, "coin", "straddle", "--n", "10", "--p", "1/2", "--eps", "1/1000")
    assert code == 0
    assert out.strip() == "1"


def test_coin_tail_csv(capsys):
    code, out, _ = run(capsys, "coin", "tail", "--n", "4", "--p", "1/2", "--eps", "1/1000")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "H,P_N,P_L"
    assert lines[1] == "0,1/16,1/16"
    assert lines[3] == "2,3/8,11/16"
    assert lines[-1] == "4,1/16,1"


def test_coin_tail_json(capsys):
    code, out, _ = run(
        capsys, "coin", "tail", "--n", "4", "--p", "1/2", "--eps", "1/1000", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert rows[0] == {"heads": 0, "point": "1/16", "tail": "1/16"}
    assert rows[2] == {"heads": 2, "point": "3/8", "tail": "11/16"}
    assert rows[-1] == {"heads": 4, "point": "1/16", "tail": "1"}


def test_coin_even_odd(capsys):
    code, out, _ = run(
        capsys, "coin", "even-odd", "--n", "8", "--p", "1/2", "--eps", "5/64",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cutoff"] == 0
    assert doc["primitive_cardinality"] == 20
    assert doc["witness_supported"] is True


def test_coin_rejects_bad_rational(capsys):
    code, _, err = run(capsys, "coin", "h-epsilon", "--n", "4", "--p", "x", "--eps", "1/4")
    assert code == 1


def test_feasibility_solve_and_max(capsys, coin_file):
    code, out, _ = run(
        capsys, "feasibility", "solve", "--theory", coin_file,
        "--duals", "0x1,0x2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"status": "feasible", "assignment": {"0x1": "1/3", "0x2": "2/3"}}
    code, out, _ = run(
        capsys, "feasibility", "max", "--theory", coin_file,
        "--duals", "0x1,0x2,0x3", "--phi", "0x3", "--format", "json",
    )
    assert json.loads(out) == {"max_probability": "0"}


def test_feasibility_build(capsys, coin_file):
    code, out, _ = run(
        capsys, "feasibility", "build", "--theory", coin_file,
        "--duals", "0x2,0x1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"coevents": [{"dual": "0x1"}, {"dual": "0x2"}], "rows": 4}
    code, out, _ = run(capsys, "feasibility", "build", "--theory", coin_file, "--duals", "0x3,0x1")
    assert (code, out) == (0, "0x1 {h}\n0x3 {h,t}\nrows = 4\n")


def test_feasibility_certificate_is_spelled_over_its_support(capsys, three_path_file, tmp_path):
    # no dual inside {b}, whose measure is 1: that row alone certifies
    code, out, _ = run(capsys, "feasibility", "solve", "--theory", three_path_file, "--duals", "0x1,0x4")
    assert (code, out) == (0, "infeasible\n  farkas[0x2] = 1\n")
    # every dual of a 12-history table whose Moebius transform is -1 on
    # {h0, h1}: the signed Moebius row of four entries, and one line per
    # column from build
    n = 12
    m = [0] * (1 << n)
    m[1], m[2], m[3], m[4] = 1, 1, -1, 1
    values = {hex(a): str(sum(m[b] for b in (1, 2, 3, 4) if b & a == b)) for a in range(1 << n)}
    path = tmp_path / "signed.json"
    path.write_text(json.dumps({"histories": [f"h{i}" for i in range(n)],
                                "measure": {"type": "table", "values": values}}))
    duals = ",".join(hex(d) for d in range(1, 1 << n))
    code, out, _ = run(capsys, "feasibility", "solve", "--theory", str(path), "--duals", duals,
                       "--format", "json")
    assert code == 0 and len(out) < 200
    assert json.loads(out) == {"status": "infeasible",
                               "certificate": {"farkas": {"0x0": "-1", "0x1": "1", "0x2": "1", "0x3": "-1"}}}
    code, out, _ = run(capsys, "feasibility", "build", "--theory", str(path), "--duals", duals)
    lines = out.splitlines()
    assert (code, len(lines), lines[-1]) == (0, (1 << n), f"rows = {1 << n}")


def test_hypothesis_with_sequence(capsys):
    code, out, _ = run(
        capsys, "hypothesis", "--p0", "1/2", "--eps", "1/1000",
        "--sequence", "t" * 20, "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "Reject"
    assert doc["cumulative"] == "1/1048576"


@pytest.mark.parametrize("extra", [(), ("--n", "5")])
def test_hypothesis_refuses_an_empty_sequence(capsys, extra):
    """An empty --sequence is a sequence given, refused by TrialSequence,
    not a request to simulate --n tosses."""
    code, out, err = run(capsys, "hypothesis", "--p0", "1/2", "--eps", "1/100", "--sequence", "", *extra)
    assert (code, out) == (1, "")
    assert err == "error: outcomes must be a nonempty string over {h, t}\n"


def test_hypothesis_simulated_deterministic(capsys):
    args = ("hypothesis", "--n", "50", "--p0", "1/2", "--eps", "1/100",
            "--seed", "9", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_byte_identical_reruns(capsys, three_path_file):
    outputs = []
    for _ in range(2):
        code, out, err = run(
            capsys, "partition", "--theory", three_path_file, "--principle",
            "--format", "json",
        )
        assert code == 0
        outputs.append(out + err)
    assert outputs[0] == outputs[1]


def test_unknown_command_exits_one(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()



#: sha256 of ``coin tail --n 1000 --p 1/3 --eps 1/100``, recorded when every
#: row was formatted from a ``Fraction``.
TAIL_1000_THIRD_SHA256 = "57e7b56162918578c2ceff4b257e3940ddcfb056befb0652042f5eecf211c633"


def test_coin_tail_output_is_pinned(capsys):
    code, out, _ = run(capsys, "coin", "tail", "--n", "1000", "--p", "1/3", "--eps", "1/100")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TAIL_1000_THIRD_SHA256


#: sha256 of ``hypothesis --n 20000 --p0 1/3 --eps 1/100 --seed 7``, recorded
#: when every toss drew its own ``getrandbits(64)`` word.
HYPOTHESIS_20000_SHA256 = "5cf6c4b0a85efdbce3711a00f8ea61bad4bc124d639a3e7ca7bc9f580a5411a6"


def test_hypothesis_output_is_pinned(capsys):
    code, out, _ = run(capsys, "hypothesis", "--n", "20000", "--p0", "1/3", "--eps", "1/100", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HYPOTHESIS_20000_SHA256


def test_coin_outputs_print_beyond_the_int_string_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "coin", "straddle", "--n", "14400", "--p", "1/2", "--eps", "1/100")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    cardinality = be.straddle_set_cardinality(be.BernoulliModel(14400, Fraction(1, 2), Fraction(1, 100)))
    assert len(out) - 1 > 4300  # digits and the newline
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"{cardinality}\n"
    finally:
        sys.set_int_max_str_digits(limit)

    code, out, err = run(capsys, "coin", "tail", "--n", "900", "--p", "1/100000", "--eps", "1/100")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    lines = out.splitlines()
    assert len(lines) == 902
    assert lines[-1].endswith(",1")

    code, out, err = run(capsys, "hypothesis", "--n", "20000", "--p0", "1/3", "--eps", "1/100",
                         "--format", "json")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    assert len(json.loads(out)["cumulative"]) > 4300


def test_input_parsing_keeps_the_int_string_limit(capsys):
    limit = sys.get_int_max_str_digits()
    # without the limit this eps parses, and h-epsilon prints "none"
    code, _, err = run(capsys, "coin", "h-epsilon", "--n", "10", "--eps", "1/" + "7" * (limit + 1))
    assert code == 1
    assert "not a rational" in err
    assert sys.get_int_max_str_digits() == limit


def test_one_parser_serves_every_call(capsys, monkeypatch, three_path_file):
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ("measure", "--theory", three_path_file, "--mu", "0x5", "--mu", "0x3"),
        ("measure", "--theory", three_path_file, "--mu", "0x2"),
        ("primitives", "--theory", three_path_file, "--format", "json"),
        ("coin", "no-such-action", "--n", "4", "--eps", "1/4"),
        ("coin", "straddle", "--n", "10", "--eps", "1/1000"),
        ("measure", "--help"),
        ("coin", "tail", "--n", "5", "--p", "1/3", "--eps", "1/100", "--format", "json"),
        ("--help",),
        ("hypothesis", "--n", "30", "--p0", "1/2", "--eps", "1/100", "--seed", "3"),
        ("measure", "--theory", three_path_file, "--interference", "0x2,0x4"),
    ]
    shared = [run(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(capsys, *argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
    # the repeated --mu of the first call does not carry into the second
    assert shared[1][1].count("mu ") == 1
    assert "mu" not in shared[-1][1]


def test_theory_outputs_print_beyond_the_int_string_limit(capsys, tmp_path):
    # every input is under the limit, but the measure of both histories,
    # also the total in validate's report, needs about 8,000 digits, and so
    # does the common denominator the feasibility checks run over
    big = 10**4000
    first, second = Fraction(1, big + 1), Fraction(1, big + 3)
    matrix = [[[f"1/{big + 1}", "0"], ["0", "0"]], [["0", "0"], [f"1/{big + 3}", "0"]]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"histories": ["a", "b"],
                                "measure": {"type": "decoherence", "matrix": matrix}}))
    limit = sys.get_int_max_str_digits()
    calls = {
        ("measure", "--mu", "0x3"): 0,
        ("validate",): 1,
        ("validate", "--relax-normalization"): 0,
        ("primitives",): 0,
        ("partition", "--principle"): 0,
        ("feasibility", "build", "--duals", "0x1,0x2"): 0,
        ("feasibility", "solve", "--duals", "0x1,0x2"): 0,
    }
    outputs = {}
    for argv, expected_code in calls.items():
        head = list(argv[:2]) if argv[0] == "feasibility" else [argv[0]]
        code, out, err = run(capsys, *head, "--theory", str(path), *argv[len(head):])
        assert (code, err) == (expected_code, "")
        assert sys.get_int_max_str_digits() == limit
        outputs[argv] = out
    sys.set_int_max_str_digits(0)
    try:
        total = first + second
        assert outputs["measure", "--mu", "0x3"] == f"mu 0x3 {{a,b}} = {total}\n"
        assert f"D(Omega,Omega) = ({total}+0i), expected 1\n" in outputs["validate",]
    finally:
        sys.set_int_max_str_digits(limit)
    assert outputs["primitives",] == "0x1 {a}\n0x2 {b}\n"
    assert outputs["feasibility", "build", "--duals", "0x1,0x2"] == "0x1 {a}\n0x2 {b}\nrows = 4\n"
    assert outputs["feasibility", "solve", "--duals", "0x1,0x2"] == f"feasible\n  p[0x1] = {first}\n  p[0x2] = {second}\n"

    # an input past the limit is still refused
    path.write_text(json.dumps({"histories": ["a"],
                                "measure": {"type": "weights", "weights": ["1/" + "7" * 5000]}}))
    code, _, err = run(capsys, "measure", "--theory", str(path), "--mu", "0x1")
    assert code == 1 and "not a rational" in err
    assert sys.get_int_max_str_digits() == limit


def test_weights_theory_of_4096_histories(capsys, tmp_path):
    theory = be.explicit_theory(be.BernoulliModel(12, Fraction(1, 2), Fraction(1, 1000)))
    path = tmp_path / "w4096.json"
    path.write_text(json.dumps(theory_to_json(theory)))
    omega = hex((1 << 4096) - 1)
    code, out, err = run(capsys, "measure", "--theory", str(path), "--mu", "0x6", "--mu", omega,
                         "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"mu": {"0x6": "1/2048", omega: "1"}}
    code, out, err = run(capsys, "partition", "--theory", str(path), "--principle", "--eps", "1/1000",
                         "--format", "json")
    assert (code, err) == (0, "")
    # 1/1000 <= 5/4096: every 5-subset is a primitive dual, chained into one class
    assert json.loads(out) == {"blocks": [omega], "fat_duals": [omega], "classes": None,
                               "class_sizes": [math.comb(4096, 5)], "uncovered": []}
    code, out, err = run(capsys, "validate", "--theory", str(path))
    assert (code, err) == (0, "")
    assert out == "valid\n  warning: event lattice beyond enumeration cap; positivity checked per query only\n"


def _table_file(tmp_path, name, value_of):
    """A table theory of 16 histories, mu(mask) = value_of(mask)."""
    n = 16
    doc = {"histories": [f"h{i}" for i in range(n)],
           "measure": {"type": "table", "values": {hex(m): value_of(m) for m in range(1 << n)}}}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_partition_queries_finish_at_the_cap(capsys, tmp_path):
    # one weighted history: 2**15 null events, every trace on {h1..h15} null
    one = _table_file(tmp_path, "one.json", lambda m: str(m & 1))
    assert run(capsys, "partition", "--theory", one, "--blocks", "0xfffe,0x1", "--check", "separable") == (
        0, "separable: True\n", "")
    # mu(A) = |A| but for the null {h0, h1}, whose trace {h0} has no null cover
    pair = _table_file(tmp_path, "pair.json", lambda m: "0" if m == 0b11 else str(m.bit_count()))
    assert run(capsys, "partition", "--theory", pair, "--blocks", "0x1,0xfffe", "--check", "separable") == (
        0, "separable: False\n", "")
    # uniform: every 8-subset is a primitive dual at eps 1/2, chained into one class
    uniform = _table_file(tmp_path, "uniform.json", lambda m: f"{m.bit_count()}/16")
    code, out, err = run(capsys, "partition", "--theory", uniform, "--principle", "--eps", "1/2",
                         "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["blocks"], doc["class_sizes"], doc["fat_duals"], doc["uncovered"]) == (
        ["0xffff"], [12870], ["0xffff"], [])
    assert run(capsys, "partition", "--theory", uniform, "--blocks", "0xff,0xff00", "--check", "classical-m",
               "--eps", "1/2") == (0, "classical-m: False\n", "")


def test_negative_eps_is_refused(capsys, tmp_path):
    path = tmp_path / "uniform.json"
    theory = be.explicit_theory(be.BernoulliModel(2, Fraction(1, 2), Fraction(1, 8)))  # uniform weights
    path.write_text(json.dumps(theory_to_json(theory)))
    for argv in (["primitives"], ["partition", "--principle"],
                 ["partition", "--blocks", "0x1,0x2,0x4,0x8", "--check", "classical-m"]):
        assert run(capsys, *argv, "--theory", str(path), "--eps=-1/2") == (
            1, "", "error: eps must be nonnegative\n")


def test_classical_m_refuses_above_the_cap(capsys, tmp_path):
    # non-uniform weights miss the closed form, so the cap must refuse before any block is read
    small = tmp_path / "w20.json"
    small.write_text(json.dumps({"histories": [f"h{i}" for i in range(20)],
                                 "measure": {"type": "weights", "weights": [f"{i + 1}/210" for i in range(20)]}}))
    code, out, err = run(capsys, "partition", "--theory", str(small), "--blocks", "0x3ff,0xffc00",
                         "--check", "classical-m")
    assert (code, out) == (2, "") and "exceeds the enumeration cap of 16" in err
    big = tmp_path / "w4096.json"
    big.write_text(json.dumps(theory_to_json(be.explicit_theory(be.BernoulliModel(12, Fraction(1, 3), Fraction(1, 1000))))))
    low = (1 << 2048) - 1
    code, out, err = run(capsys, "partition", "--theory", str(big), "--blocks", f"{hex(low)},{hex(low << 2048)}",
                         "--check", "classical-m")
    assert (code, out) == (2, "") and "beyond the hard cap" in err

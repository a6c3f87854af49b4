import json

import pytest

from bfree.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestGoldenOutputs:
    def test_eta(self, capsys):
        code, out, _ = run(capsys, "eta", "--bset", "2,3", "--window", "0:6")
        assert code == 0
        assert json.loads(out) == {"schema": 1, "word": {"offset": 0, "bits": "010001"}}

    def test_phi(self, capsys):
        code, out, _ = run(capsys, "phi", "--bset", "2,3", "--omega", "1,0", "--window", "0:6")
        assert json.loads(out)["word"]["bits"] == "001010"

    def test_admissible(self, capsys):
        _, out, _ = run(capsys, "admissible", "--bset", "2,3", "--word", "11")
        assert json.loads(out)["admissible"] is False

    def test_complexity(self, capsys):
        _, out, _ = run(capsys, "complexity", "--bset", "2,3", "--n", "3")
        assert json.loads(out)["p_n"] == ["2", "3", "5"]

    def test_entropy_bfree(self, capsys):
        _, out, _ = run(capsys, "entropy", "--formula", "bfree", "--bset", "2,3")
        obj = json.loads(out)
        assert obj["exact"] == "1/3"
        assert abs(obj["bits"] - 1 / 3) < 1e-12

    def test_entropy_product(self, capsys):
        _, out, _ = run(capsys, "entropy", "--formula", "product", "--bset", "2,3", "--p", "1/2")
        assert json.loads(out)["exact"] == "1/3"

    def test_entropy_generalized(self, capsys):
        _, out, _ = run(
            capsys, "entropy", "--formula", "generalized",
            "--bset", "4,9", "--s", "2,3", "--a", "0,2;0,3,6",
        )
        assert json.loads(out)["exact"] == "1/3"

    def test_entropy_periodic(self, capsys):
        _, out, _ = run(capsys, "entropy", "--formula", "periodic", "--block", "101001000")
        assert json.loads(out)["exact"] == "1/3"

    def test_mirsky(self, capsys):
        _, out, _ = run(capsys, "mirsky", "--bset", "2,3", "--ones", "0")
        assert json.loads(out)["probability"] == "1/3"

    def test_sample_deterministic(self, capsys):
        args = ("sample", "--measure", "mme", "--bset", "2,3", "--window", "0:6",
                "--count", "4", "--seed", "42")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        meta = json.loads(out1)["metadata"]
        assert meta["seed"] == 42 and "generator" in meta

    def test_sample_empty_batch(self, capsys):
        code, out, _ = run(capsys, "sample", "--measure", "mirsky", "--bset", "2,3",
                           "--window", "0:9", "--count", "0")
        assert code == 0
        assert json.loads(out)["words"] == []

    def test_transitive_negative_length(self, capsys):
        code, _, err = run(capsys, "transitive", "--bset", "2", "--length", "-7")
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"

    def test_spectrum(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--bset", "9", "--word", "101101101")
        assert json.loads(out)["profile"] == [
            {"b": 9, "s": 3, "missing": [1, 4, 7], "b_prime": 3}
        ]

    def test_theta(self, capsys):
        _, out, _ = run(capsys, "theta", "--bset", "2,3", "--word", "101")
        assert json.loads(out)["theta"] == [{"unique": 1}, {"unique": 2}]

    def test_theta_past_int64(self, capsys):
        # both ones are 0 mod 3 and sit at 2^63 - 5 and 2^63 + 4, past int64
        _, out, _ = run(capsys, "theta", "--bset", "3", "--word", "1000000001",
                        "--offset", str(2**63 - 5))
        assert json.loads(out)["theta"] == [{"ambiguous": [1, 2]}]

    def test_admissible_far_offset(self, capsys):
        code, out, _ = run(capsys, "admissible", "--bset", "2,3", "--word", "101",
                           "--offset", str(10**23))
        assert code == 0 and json.loads(out)["admissible"] is True

    def test_include(self, capsys):
        _, out, _ = run(capsys, "include", "--bset", "2,3", "--other", "5")
        obj = json.loads(out)
        assert obj["includes"] is False and obj["witness"] is not None

    def test_witness_null_when_included(self, capsys):
        _, out, _ = run(capsys, "witness", "--bset", "2", "--other", "4")
        assert json.loads(out)["witness"] is None

    @pytest.mark.parametrize("bset, other", [("2", "4"), ("2,3", "5")])
    def test_witness_is_an_alias_of_include(self, capsys, bset, other):
        # one included pair, one with a separating word
        _, included, _ = run(capsys, "include", "--bset", bset, "--other", other)
        _, witness, _ = run(capsys, "witness", "--bset", bset, "--other", other)
        assert witness == included

    def test_construct_admissible(self, capsys):
        _, out, _ = run(capsys, "construct-admissible", "--small", "2,3", "--bprime", "5")
        assert json.loads(out)["set"] == [13, 17, 19, 31, 35]

    def test_density(self, capsys):
        _, out, _ = run(capsys, "density", "--bset", "2,3", "--c", "1", "--horizon", "6")
        assert json.loads(out)["density"] == pytest.approx(1 / 3)

    def test_sturmian(self, capsys):
        _, out, _ = run(capsys, "sturmian", "--window", "0:6")
        assert json.loads(out)["word"]["bits"] == "101011"

    def test_counterexample(self, capsys):
        _, out, _ = run(capsys, "counterexample", "two-mme")
        obj = json.loads(out)
        assert obj["frequencies"] == ["1/72", "0"]
        assert obj["entropies_bits"] == ["1/3", "1/3"]

    def test_transitive(self, capsys):
        _, out, _ = run(capsys, "transitive", "--bset", "2", "--length", "10")
        assert json.loads(out)["word"]["bits"] == "0001000000"

    def test_squeeze(self, capsys):
        _, out, _ = run(capsys, "squeeze", "--x", "110010", "--z", "101010")
        assert json.loads(out)["word"]["bits"] == "101"

    def test_embed(self, capsys):
        _, out, _ = run(capsys, "embed", "--u", "101", "--z", "101010")
        assert json.loads(out)["word"]["bits"] == "100010"


class TestFormatsAndErrors:
    def test_csv_after_subcommand(self, capsys):
        code, out, _ = run(capsys, "complexity", "--bset", "2,3", "--n", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,p_n,h_n"

    def test_csv_before_subcommand(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "eta", "--bset", "2", "--window", "0:4")
        assert code == 0 and out.startswith("key,value")

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "result.json"
        code, out, _ = run(capsys, "eta", "--bset", "2,3", "--window", "0:6", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["word"]["bits"] == "010001"

    def test_out_file_not_writable_exit_1(self, tmp_path, capsys):
        path = tmp_path / "missing" / "result.json"
        code, out, err = run(capsys, "eta", "--bset", "2,3", "--window", "0:5", "--out", str(path))
        assert code == 1 and out == ""
        obj = json.loads(err)
        assert obj == {"schema": 1, "error": "FileNotFoundError", "message": obj["message"]}
        assert str(path) in obj["message"] and not path.parent.exists()

    def test_domain_error_exit_1(self, capsys):
        code, out, err = run(capsys, "eta", "--bset", "2,4", "--window", "0:6")
        assert code == 1 and out == ""
        obj = json.loads(err)
        assert obj["error"] == "NotCoprime"

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("window", ["7", "0:x", "1:2:3"])
    def test_malformed_window_exit_2(self, capsys, window):
        with pytest.raises(SystemExit) as exc:
            main(["eta", "--bset", "2,3", "--window", window])
        assert exc.value.code == 2
        assert "--window" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["complexity", "--bset", "4,x", "--n", "3"], "--bset"),
        (["eta", "--bset", "2,,3", "--window", "0:6"], "--bset"),
        (["phi", "--bset", "2,3", "--omega", "1,y", "--window", "0:6"], "--omega"),
        (["mirsky", "--bset", "4,9", "--ones", "0,x"], "--ones"),
        (["mirsky", "--bset", "4,9", "--zeros", "1.5"], "--zeros"),
        (["include", "--bset", "2,3", "--other", "5,"], "--other"),
        (["construct-admissible", "--small", "2,q", "--bprime", "5"], "--small"),
        (["entropy", "--formula", "generalized", "--bset", "4,9", "--s", "2,x", "--a", "0,2;0,3,6"], "--s"),
        (["entropy", "--formula", "generalized", "--bset", "4,9", "--s", "2,3", "--a", "0,2;0,x"], "--a"),
    ])
    def test_malformed_integer_list_exit_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_mirsky_position_in_ones_and_zeros_exit_2(self, capsys):
        # the zero used to overwrite the one silently and print 1/3
        with pytest.raises(SystemExit) as exc:
            main(["mirsky", "--bset", "4,9", "--ones", "1", "--zeros", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--ones" in err and "--zeros" in err

    def test_mirsky_ones_and_zeros(self, capsys):
        _, out, _ = run(capsys, "mirsky", "--bset", "2,3", "--ones", "0", "--zeros", "1")
        # the one at 0 forces c_2 = 1, which strikes 1: Haar count 2 of 6
        assert json.loads(out)["probability"] == "1/3"

    @pytest.mark.parametrize("argv, flag", [
        (["entropy", "--formula", "bfree"], "--bset"),
        (["entropy", "--formula", "generalized", "--bset", "4,9"], "--s"),
        (["entropy", "--formula", "product", "--bset", "2,3"], "--p"),
        (["entropy", "--formula", "periodic"], "--block"),
        (["sample", "--measure", "generalized", "--bset", "4,9", "--window", "0:8"], "--s"),
    ])
    def test_flag_of_the_chosen_mode_missing_exit_2(self, capsys, argv, flag):
        # these ended in a TypeError or AttributeError traceback with exit 1
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"requires {flag}" in err

    @pytest.mark.parametrize("argv, flag", [
        (["entropy", "--formula", "product", "--bset", "2,3", "--p", "1/0"], "--p"),
        (["entropy", "--formula", "product", "--bset", "2,3", "--p", "x"], "--p"),
        (["sample", "--measure", "product", "--bset", "2,3", "--window", "0:6", "--p", "1/x"], "--p"),
        (["sturmian", "--window", "0:8", "--interval", "0"], "--interval"),
        (["sturmian", "--window", "0:8", "--interval", "0:x"], "--interval"),
        (["sturmian", "--window", "0:8", "--alpha", "abc"], "--alpha"),
        (["sturmian", "--window", "0:8", "--y", "1/0"], "--y"),
        (["counterexample", "two-mme", "--p", "q"], "--p"),
    ])
    def test_malformed_fraction_exit_2(self, capsys, argv, flag):
        # these exited 1 with a ValueError, or 1/0 with a ZeroDivisionError traceback
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and flag in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
    def test_seed_out_of_range_exit_2(self, capsys, seed):
        # "-1" exited 1 with numpy's Philox key error
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--measure", "mirsky", "--bset", "2,3", "--window", "0:4",
                  "--count", "2", "--seed", seed])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--seed" in err

    def test_fraction_out_of_range_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "sturmian", "--window", "0:8", "--y", "2")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eta", "--window", "0:6"])
        assert exc.value.code == 2
        capsys.readouterr()

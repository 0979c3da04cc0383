import argparse
import json

import pytest

from senlab import accept, jsonio
from senlab.cli import SUITES, build_parser, main
from senlab.dpseries import DPSeries, log_t
from senlab.field import LocalFieldSpec, build_field, eisenstein_field, qp_field
from senlab.padic import PadicScalar
from senlab.senmod import SenModule

S = PadicScalar

FIELD_SPEC = {
    "p": 3, "prec": 40,
    "unramified_poly": ["-1", "1"],
    "eisenstein_poly": [["-3"], ["0"], ["1"]],
}
NILPOTENT = {"theta": [[{"coeffs": [["0", "0"]]}, {"coeffs": [["-1", "0"]]}],
                       [{"coeffs": [["0", "0"]]}, {"coeffs": [["0", "0"]]}]]}


@pytest.fixture()
def field_file(tmp_path):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(FIELD_SPEC))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestJsonRoundTrip:
    def test_scalar(self):
        x = S.from_int(-7, 3, 25)
        back = jsonio.decode_scalar(jsonio.encode_scalar(x))
        assert (back - x).is_zero() and back.prec == 25
        z = jsonio.decode_scalar(jsonio.encode_scalar(S.zero(3, 9)))
        assert z.is_zero() and z.prec == 9

    def test_element(self):
        K = eisenstein_field(3, [-3, 0, 1], 30)
        x = K.from_grid([[S.from_int(5, 3, 30), S.from_int(-2, 3, 30)]])
        back = jsonio.decode_element(jsonio.encode_element(x), K)
        assert (back - x).is_zero()

    def test_field_spec(self):
        K = eisenstein_field(3, [-3, 0, 1], 30)
        K2 = jsonio.decode_field_spec(jsonio.encode_field_spec(K))
        assert K2.degree == 2 and (K2.different_e.coordinates()[1]
                                   - K.different_e.coordinates()[1]).is_zero()

    def test_dpseries(self):
        K = qp_field(3, 30)
        f = log_t(K, 6)
        back = jsonio.decode_dpseries(jsonio.encode_dpseries(f), K)
        assert back.eq_to_precision(f)

    def test_bad_unit_rejected(self):
        from senlab.errors import UsageError
        with pytest.raises(UsageError, match="unit"):
            jsonio.decode_scalar({"p": 3, "val": 0, "unit": "6", "prec": 10})

    def test_non_prime_scalar_rejected(self):
        from senlab.errors import UsageError
        with pytest.raises(UsageError, match="not a prime"):
            jsonio.decode_scalar({"p": 0, "val": 0, "unit": "1", "prec": 10})


class TestCliCommands:
    def test_field_build(self, capsys, field_file):
        code, rep = run_cli(capsys, "field", "build", "--spec", field_file)
        assert code == 0
        assert rep["degree"] == 2 and rep["ramification_index"] == 2
        assert rep["v_e"] == {"num": "1", "den": "2"}
        assert rep["settings"]["prec"] == 40

    def test_nearly_ht(self, capsys, field_file, tmp_path):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(NILPOTENT))
        code, rep = run_cli(capsys, "senmod", "nearly-ht", "--field", field_file,
                            "--theta", str(theta))
        assert code == 0
        assert rep["verdict"] is True
        assert rep["slopes"]

    def test_solve_theta_closed_form(self, capsys, field_file, tmp_path):
        g = tmp_path / "one.json"
        g.write_text(json.dumps({"coeffs": [{"coeffs": [["1", "0"]]}]}))
        code, rep = run_cli(capsys, "dps", "solve-theta", "--field", field_file,
                            "--g", str(g), "--trunc", "8")
        assert code == 0
        K = eisenstein_field(3, [-3, 0, 1], 40)
        coeffs = [jsonio.decode_element(c, K)
                  for c in rep["result"]["coeffs"]]
        sol = log_t(K, 8)
        assert all((a - b).is_zero() for a, b in zip(coeffs, sol.coeffs))

    def test_gamma_delta(self, capsys):
        code, rep = run_cli(capsys, "gamma", "delta", "--p", "3", "--m", "1",
                            "--a", "2", "--nmin", "-4", "--nmax", "4",
                            "--prec", "25")
        assert code == 0
        assert rep["delta"] == {"num": "2", "den": "1"}
        assert rep["per_n"]["3"] == {"num": "2", "den": "1"}
        assert rep["norms"]["1"] == "3^1"

    def test_gamma_delta_at_degree_294(self, capsys):
        # the Tate bound reads the level's integers alone: no field of degree 294
        code, rep = run_cli(capsys, "gamma", "delta", "--p", "7", "--m", "3", "--a", "2",
                            "--nmin", "1", "--nmax", "2", "--prec", "10")
        assert code == 0
        assert rep["delta"] == {"num": "1", "den": "1"}

    def test_gamma_invert(self, capsys, tmp_path):
        level_size = 6 * 4
        rhs = tmp_path / "rhs.json"
        rhs.write_text(json.dumps({"coeffs": ["1"] * level_size}))
        code, rep = run_cli(capsys, "gamma", "invert", "--p", "3", "--m", "2",
                            "--a", "10", "--e", "1", "--trunc", "4",
                            "--rhs", str(rhs), "--prec", "40")
        assert code == 0
        assert len(rep["solution"]) == level_size
        assert int(rep["residual_valuation"]) >= 30

    def test_picard_boundary(self, capsys, field_file, tmp_path):
        elem = tmp_path / "x.json"
        elem.write_text(json.dumps({"coeffs": [["1", "0"]]}))
        code, rep = run_cli(capsys, "picard", "boundary", "--field", field_file,
                            "--elem", str(elem))
        assert code == 0
        # Tr(1) = 2 over the quadratic field: class 2/3
        assert rep["num"] == "2" and rep["den_pow"] == 1
        assert rep["in_kernel"] is False

    def test_picard_kernel(self, capsys, field_file):
        code, rep = run_cli(capsys, "picard", "kernel", "--field", field_file,
                            "--s", "0")
        assert code == 0
        assert rep["image_order_exponent"] == 1
        assert len(rep["basis"]) == 2

    def test_dps_mul_echoes_the_product_truncation(self, capsys, field_file, tmp_path):
        # two 5-coefficient series multiply to truncation 4, with no --trunc given
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"coeffs": [{"coeffs": [[str(k), "0"]]} for k in range(1, 6)]}))
        code, rep = run_cli(capsys, "dps", "mul", "--field", field_file,
                            "--f", str(f), "--g", str(f))
        assert code == 0
        assert rep["settings"] == {"prec": 40, "trunc": 4}
        assert len(rep["result"]["coeffs"]) == 5

    def test_commands_without_truncation_echo_null(self, capsys, field_file, tmp_path):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(NILPOTENT))
        for cmd in (["gamma", "delta", "--p", "3", "--m", "1", "--a", "2",
                     "--nmin", "-2", "--nmax", "2"],
                    ["senmod", "dual", "--field", field_file, "--theta", str(theta)]):
            code, rep = run_cli(capsys, *cmd)
            assert code == 0 and rep["settings"]["trunc"] is None, cmd
            code, rep = run_cli(capsys, *cmd, "--trunc", "7")
            assert code == 2 and rep is None, cmd

class TestExitCodes:
    def test_schema_error_is_2(self, capsys, field_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"theta": [[{"coeffs": [["0", "0"]]}, {"coeffs": [["1", "0"]]}],
                       [{"coeffs": [["0", "0"]]}]]}))
        code, rep = run_cli(capsys, "senmod", "nearly-ht", "--field", field_file,
                            "--theta", str(bad))
        assert code == 2
        assert "theta[1]" in rep["error"]["message"]

    def test_domain_error_is_3(self, capsys, field_file, tmp_path):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(NILPOTENT))
        chi = tmp_path / "chi.json"
        chi.write_text(json.dumps({"p": 3, "val": 0, "unit": "2", "prec": 40}))
        code, rep = run_cli(capsys, "senmod", "descent", "--field", field_file,
                            "--theta", str(theta), "--chi", str(chi))
        assert code == 3
        assert rep["error"]["concept"] == "convergence radius alpha"

    def test_not_nearly_ht_names_slopes_as_rationals(self, capsys, tmp_path):
        # theta = 3^-3 over Q_3: char(theta^3 - theta) has the one slope -9
        spec = tmp_path / "q3.json"
        spec.write_text(json.dumps({
            "p": 3, "prec": 30,
            "unramified_poly": ["-1", "1"],
            "eisenstein_poly": [["-3"], ["1"]]}))
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"theta": [[{"coeffs": [
            [{"p": 3, "val": -3, "unit": "1", "prec": 30}]]}]]}))
        code, rep = run_cli(capsys, "senmod", "weights", "--field", str(spec),
                            "--theta", str(theta))
        assert code == 3
        message = rep["error"]["message"]
        assert "slopes [-9] that are not positive" in message
        assert "Fraction(" not in message

    def test_precision_error_is_4(self, capsys, field_file, tmp_path):
        x = tmp_path / "x.json"
        x.write_text(json.dumps({"coeffs": [["1", "0"]]}))
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps(
            {"coeffs": [[{"p": 3, "val": None, "unit": "0", "prec": 40}, "0"]]}))
        code, rep = run_cli(capsys, "field", "arith", "--field", field_file,
                            "--x", str(x), "--y", str(zero), "--op", "div")
        assert code == 4

    def test_convergence_error_is_5(self, capsys, tmp_path):
        spec = tmp_path / "q3.json"
        spec.write_text(json.dumps({
            "p": 3, "prec": 30,
            "unramified_poly": ["-1", "1"],
            "eisenstein_poly": [["-3"], ["1"]]}))
        f = tmp_path / "flat.json"
        f.write_text(json.dumps(
            {"coeffs": [{"coeffs": [["1"]]} for _ in range(13)]}))
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"coeffs": [["1"]]}))
        code, rep = run_cli(capsys, "dps", "coaction", "--field", str(spec),
                            "--f", str(f), "--b", str(b))
        assert code == 5

    @pytest.mark.parametrize("unit, code", [("3", 3), ("5", 0)])
    def test_descent_ball_over_q2(self, capsys, tmp_path, unit, code):
        # over Q_2 the ball is v(chi - 1) >= 2: chi = 3 is a domain error
        # (exit 3), not a refused series (exit 5)
        spec = tmp_path / "q2.json"
        spec.write_text(json.dumps({"p": 2, "prec": 20, "unramified_poly": ["-1", "1"],
                                    "eisenstein_poly": [["-2"], ["1"]]}))
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"theta": [[{"coeffs": [["0"]]}]]}))
        chi = json.dumps({"p": 2, "val": 0, "unit": unit, "prec": 20})
        got, rep = run_cli(capsys, "senmod", "descent", "--field", str(spec),
                           "--theta", str(theta), "--chi", chi)
        assert got == code
        if code:
            assert rep["error"]["concept"] == "convergence radius alpha"

    def test_operator_series_below_bound_is_5(self, capsys, field_file, tmp_path):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(NILPOTENT))
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"coeffs": [["0", "1"]]}))
        code, rep = run_cli(capsys, "senmod", "operator-series", "--field", field_file,
                            "--theta", str(theta), "--b", str(b))
        assert code == 5
        assert rep["error"]["kind"] == "ConvergenceError"
        # v(b) = 1/2 and min(v(theta), v(e)) = 0 over Q_3(sqrt 3)
        assert rep["error"]["message"] == (
            "operator series needs v(b) + min(v(theta), v(e)) > 1/(p-1) = 1/2; got 1/2")

    def test_residue_and_image_of_a_zero_below_one_digit_are_4(self, capsys, field_file):
        # a zero to precision -2 fixes no digit: exit 4, where an element of
        # valuation -1 is proven non-integral: exit 3
        zero = json.dumps({"coeffs": [[{"val": None, "unit": "0", "prec": -2}, "0"]]})
        negative = json.dumps({"coeffs": [[{"val": -1, "unit": "1", "prec": 0}, "0"]]})
        one = json.dumps({"coeffs": [["1", "0"]]})
        for elem, code, message in [(zero, 4, "no digit available for residue"),
                                    (negative, 3, "residue of an element of negative valuation")]:
            got, rep = run_cli(capsys, "field", "residue", "--field", field_file, "--elem", elem)
            assert (got, rep["error"]["message"]) == (code, message)
        for image, code, message in [(zero, 4, "a substitution image is zero to precision -2"),
                                     (negative, 3, "substitution images must be integral")]:
            got, rep = run_cli(capsys, "field", "substitute", "--field", field_file,
                               "--elem", one, "--y-image", one, "--u-image", image)
            assert (got, rep["error"]["message"]) == (code, message)

    @pytest.mark.parametrize("prec, code", [(2, 2), (3, 0)])
    def test_twist_zero_to_precision_is_2(self, capsys, tmp_path, prec, code):
        # Q_2(zeta_8), E = (1 + u)^4 + 1, builds at 2 digits with E'(pi) = O(2^2);
        # modules and series refuse that twist, and take it at 3 digits
        spec = tmp_path / "z8.json"
        spec.write_text(json.dumps({"p": 2, "prec": prec, "unramified_poly": ["-1", "1"],
                                    "eisenstein_poly": [["2"], ["4"], ["6"], ["4"], ["1"]]}))
        got, rep = run_cli(capsys, "field", "build", "--spec", str(spec))
        assert got == 0 and rep["v_e"] == {"num": "2", "den": "1"}
        assert all((c["val"] is None) == (prec == 2) for c in rep["different_e"]["coeffs"][0])
        theta = json.dumps({"theta": [[{"coeffs": [["0"] * 4]}]]})
        for argv in [("senmod", "char-poly", "--theta", theta), ("dps", "log-t", "--trunc", "3")]:
            got, rep = run_cli(capsys, *argv[:2], "--field", str(spec), *argv[2:])
            assert got == code
            if code:
                assert rep["error"]["message"] == "the twist parameter e must be nonzero"

    @pytest.mark.parametrize("eis, prec, code", [
        ([["0"], ["0"], ["1"]], 1, 4), ([["9"], ["3"], ["1"]], 1, 4),
        ([["3"], ["0"], ["1"]], 1, 4), ([["-3"], ["0"], ["1"]], 2, 0)])
    def test_eisenstein_condition_at_low_precision(self, capsys, tmp_path, eis, prec, code):
        # at precision 1 no lower coefficient has a known digit: exit 4
        spec = tmp_path / "low.json"
        spec.write_text(json.dumps(dict(FIELD_SPEC, prec=prec, eisenstein_poly=eis)))
        got, rep = run_cli(capsys, "field", "build", "--spec", str(spec))
        assert got == code
        if code:
            assert rep["error"]["kind"] == "PrecisionError"

    # 1763 = 41 * 43 and 3215031751, a strong pseudoprime to the bases 2, 3, 5
    # and 7, have no factor among the witnesses: Miller-Rabin rejects them
    @pytest.mark.parametrize("p", [0, 1, 4, 9, 1763, 3215031751])
    def test_non_prime_p_is_2(self, capsys, tmp_path, p):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(dict(FIELD_SPEC, p=p)))
        code, rep = run_cli(capsys, "field", "build", "--spec", str(spec))
        assert code == 2 and "not a prime" in rep["error"]["message"]
        code, rep = run_cli(capsys, "gamma", "delta", "--p", str(p), "--m", "1",
                            "--a", "2", "--nmin", "-2", "--nmax", "2")
        assert code == 2 and "not a prime" in rep["error"]["message"]

    @pytest.mark.parametrize("prec", ["-3", "0"])
    @pytest.mark.parametrize("cmd", [
        ["delta", "--nmin", "1", "--nmax", "2"], ["kernel", "--e", "1", "--trunc", "2"]])
    def test_gamma_non_positive_prec_is_2(self, capsys, cmd, prec):
        level = ["--p", "3", "--m", "1", "--a", "4"]
        code, rep = run_cli(capsys, "gamma", *cmd[:1], *level, *cmd[1:], "--prec", prec)
        assert code == 2 and "precision must be >= 1" in rep["error"]["message"]

    @pytest.mark.parametrize("cmd", [
        # S_1 = 0 mod 3^2 at level 3 with a = 4, but v_3(4^9 - 1) = 3
        ["delta", "--p", "3", "--m", "3", "--a", "4", "--nmin", "1", "--nmax", "2"],
        ["kernel", "--p", "3", "--m", "3", "--a", "4", "--e", "1", "--trunc", "2"],
        # 4^3 - 1 = 63 = 0 mod 3^2, yet the closed form divides by the integer
        ["kernel", "--p", "3", "--m", "1", "--a", "4", "--e", "1", "--trunc", "3"]])
    def test_gamma_low_precision_blocks_invert(self, capsys, cmd):
        # the block inverses come from exact integers: precision 2 reports the
        # precision-40 values
        reports = []
        for prec in ("2", "40"):
            code, rep = run_cli(capsys, "gamma", *cmd, "--prec", prec)
            assert code == 0, rep
            rep.pop("settings")
            reports.append(rep)
        assert reports[0] == reports[1]
        if cmd[0] == "delta":
            assert reports[0]["per_n"] == {"1": {"num": "1", "den": "1"},
                                           "2": {"num": "1", "den": "1"}}
        else:
            assert reports[0]["sup_norm_exponent"] == {"num": "0", "den": "1"}

    @pytest.mark.parametrize("given", ["--y-image", "--u-image"])
    def test_picard_functorial_one_image_is_2(self, capsys, field_file, tmp_path, given):
        # one image alone is neither an embedding nor the scalar embedding
        elem = tmp_path / "x.json"
        elem.write_text(json.dumps({"coeffs": [["1", "0"]]}))
        deg4 = tmp_path / "deg4.json"
        eis = [["3"], ["0"], ["0"], ["0"], ["1"]]      # E = u^4 + 3
        deg4.write_text(json.dumps(dict(FIELD_SPEC, eisenstein_poly=eis)))
        for field in (field_file, str(deg4)):
            code, rep = run_cli(capsys, "picard", "functorial", "--field", field,
                                "--ext", field_file, "--elem", str(elem), given, str(elem))
            assert code == 2 and "both --y-image and --u-image" in rep["error"]["message"]

    def test_gamma_delta_exact_denominator_at_low_precision(self, capsys):
        # 2^(9 * 18) = 1 mod 3^5, but v_3(2^162 - 1) = 5 is exact and S_-9 is
        # known mod 3^5, so the block at n = -9 is not refused
        code, rep = run_cli(capsys, "gamma", "delta", "--p", "3", "--m", "3", "--a", "2",
                            "--nmin", "-10", "--nmax", "10", "--prec", "5")
        assert code == 0
        assert rep["delta"] == {"num": "3", "den": "1"}

    def test_gamma_senlab_prec_zero_is_2(self, capsys, tmp_path):
        # --prec 0 is a precision, not "unset", on every gamma command
        rhs = tmp_path / "rhs.json"
        rhs.write_text(json.dumps({"coeffs": ["1"] * 2}))
        level = ["--p", "3", "--m", "1", "--a", "4"]
        for cmd in (["delta", *level, "--nmin", "1", "--nmax", "2"],
                    ["invert", *level, "--e", "1", "--trunc", "1", "--rhs", str(rhs)],
                    ["kernel", *level, "--e", "1", "--trunc", "2"]):
            code, rep = run_cli(capsys, "gamma", *cmd, "--prec", "0")
            assert code == 2 and "precision must be >= 1" in rep["error"]["message"], cmd

    @pytest.mark.parametrize("bounds", [["--nmin", "0"], ["--nmax", "3"]])
    def test_senmod_weights_one_bound_is_2(self, capsys, field_file, tmp_path, bounds):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(NILPOTENT))
        argv = ["senmod", "weights", "--field", field_file, "--theta", str(theta)]
        code, rep = run_cli(capsys, *argv, *bounds)
        assert code == 2 and "both --nmin and --nmax" in rep["error"]["message"]
        code, rep = run_cli(capsys, *argv, "--nmin", "0", "--nmax", "3")
        assert code == 0 and rep["weights"] == [{"n": 0, "multiplicity": 2}]

    @staticmethod
    def weights_argv(tmp_path, weights):
        """`senmod weights` on e diag(weights) over Q_3(i, 3^(1/3)) at precision 30."""
        K = build_field(LocalFieldSpec(3, [1, 0, 1], [[-3], [0], [0], [1]], 30))
        theta = SenModule.diagonal_weights(K, weights).matrix()
        field, theta_file = tmp_path / "k6.json", tmp_path / "theta.json"
        field.write_text(json.dumps(jsonio.encode_field_spec(K)))
        theta_file.write_text(json.dumps(jsonio.encode_matrix(theta)))
        return ["senmod", "weights", "--field", str(field), "--theta", str(theta_file)]

    def test_senmod_weights_27_apart_are_not_reported(self, capsys, tmp_path):
        argv = self.weights_argv(tmp_path, [0, 0, 1, 1, -1, -1, 2, 2])
        code, rep = run_cli(capsys, *argv)
        assert code == 0
        assert rep["weights"] == [{"n": n, "multiplicity": 2} for n in (-1, 0, 1, 2)]

    def test_senmod_weights_inseparable_window_is_4(self, capsys, tmp_path):
        code, rep = run_cli(capsys, *self.weights_argv(tmp_path, [3] * 8))
        assert code == 4 and "exceed dim = 8" in rep["error"]["message"]

    def test_dps_negative_trunc_is_2(self, capsys, field_file, tmp_path):
        # a negative truncation would slice the coefficient list from its end
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"coeffs": [{"coeffs": [["1", "0"]]}] * 5}))
        code, rep = run_cli(capsys, "dps", "mul", "--field", field_file, "--f", str(f),
                            "--g", str(f), "--trunc", "-2")
        assert code == 2 and "truncation must be >= 0" in rep["error"]["message"]
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"coeffs": [{"coeffs": [["1", "0"]]}] * 5, "trunc": -2}))
        code, rep = run_cli(capsys, "dps", "solve-theta", "--field", field_file,
                            "--g", str(g))
        assert code == 2 and "g.trunc" in rep["error"]["message"]
        code, rep = run_cli(capsys, "dps", "log-t", "--field", field_file, "--trunc", "-3")
        assert code == 2 and "truncation must be >= 0" in rep["error"]["message"]
        code, rep = run_cli(capsys, "dps", "log-t", "--field", field_file, "--trunc", "0")
        assert code == 0 and len(rep["result"]["coeffs"]) == 1

    @pytest.mark.parametrize("command,flag", [
        ("solve-theta", "g"), ("theta", "f"), ("mul", "f"), ("mul", "g"),
        ("coaction", "f"), ("gsharp", "f")])
    def test_dps_decode_errors_name_the_flag(self, capsys, field_file, command, flag):
        one = json.dumps({"coeffs": [{"coeffs": [["1", "0"]]}]})
        flags = {"solve-theta": {}, "theta": {}, "mul": {"f": one, "g": one},
                 "coaction": {"b": json.dumps({"coeffs": [["1", "0"]]})},
                 "gsharp": {"direction": "to_gsharp"}}[command]
        flags[flag] = json.dumps({"coeffs": [{"coeffs": [["x", "0"]]}]})
        argv = [arg for name, value in flags.items() for arg in ("--" + name, value)]
        code, rep = run_cli(capsys, "dps", command, "--field", field_file, *argv)
        assert code == 2 and rep["error"]["message"].startswith(flag + ".coeffs[0]")

    def test_unknown_flag_rejected(self, capsys, field_file):
        code = main(["field", "build", "--spec", field_file, "--bogus"])
        capsys.readouterr()
        assert code == 2


# every command with its required flags; the values only have to parse
COMMANDS = {
    "field build": ["--spec", "f"],
    "field arith": ["--field", "f", "--x", "x", "--y", "y", "--op", "add"],
    "field valuation": ["--field", "f", "--elem", "x"],
    "field trace": ["--field", "f", "--elem", "x"],
    "field residue": ["--field", "f", "--elem", "x"],
    "field substitute": ["--field", "f", "--elem", "x", "--y-image", "y", "--u-image", "u"],
    "dps solve-theta": ["--field", "f", "--g", "g"],
    "dps theta": ["--field", "f", "--f", "s"],
    "dps mul": ["--field", "f", "--f", "s", "--g", "g"],
    "dps coaction": ["--field", "f", "--f", "s", "--b", "b"],
    "dps log-t": ["--field", "f"],
    "dps gsharp": ["--field", "f", "--f", "s", "--direction", "to_gsharp"],
    "senmod char-poly": ["--field", "f", "--theta", "t"],
    "senmod nearly-ht": ["--field", "f", "--theta", "t"],
    "senmod cohomology": ["--field", "f", "--theta", "t"],
    "senmod dual": ["--field", "f", "--theta", "t"],
    "senmod weights": ["--field", "f", "--theta", "t"],
    "senmod tensor": ["--field", "f", "--theta", "t", "--theta2", "t"],
    "senmod twist": ["--field", "f", "--theta", "t", "--n", "1"],
    "senmod operator-series": ["--field", "f", "--theta", "t", "--b", "b"],
    "senmod descent": ["--field", "f", "--theta", "t", "--chi", "c"],
    "gamma delta": ["--p", "3", "--m", "1", "--a", "2", "--nmin", "1", "--nmax", "2"],
    "gamma invert": ["--p", "3", "--m", "1", "--a", "2", "--e", "1", "--rhs", "r"],
    "gamma kernel": ["--p", "3", "--m", "1", "--a", "2", "--e", "1"],
    "picard boundary": ["--field", "f", "--elem", "x"],
    "picard kernel": ["--field", "f"],
    "picard functorial": ["--field", "f", "--ext", "g", "--elem", "x"],
    "picard witness": ["--field", "f", "--k", "1"],
    "accept": [],
}
TAKES_TRUNC = {"dps solve-theta", "dps theta", "dps mul", "dps coaction", "dps log-t",
               "dps gsharp", "gamma invert", "gamma kernel"}


def _subcommands(parser):
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def test_commands_cover_the_parser():
    names = {" ".join(filter(None, (g, c)))
             for g, q in _subcommands(build_parser()).items()
             for c in _subcommands(q) or [None]}
    assert names == set(COMMANDS) and len(COMMANDS) == 29


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_takes_only_the_flags_it_reads(capsys, command):
    argv = command.split() + COMMANDS[command]
    takes = {"--prec": command != "accept", "--trunc": command in TAKES_TRUNC,
             "--out": False, "--require-contraction": False}
    for flag, taken in takes.items():
        value = [] if flag == "--require-contraction" else ["5"]
        if taken:
            args = build_parser().parse_args(argv + [flag, *value])
            assert getattr(args, flag[2:]) == 5
        else:
            assert main(argv + [flag, *value]) == 2, flag
            assert capsys.readouterr().out == ""


class TestAccept:
    def test_over_budget_criterion_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(accept.RUNTIME_BUDGETS, 9, 0.0)
        code = main(["accept", "picard"])
        captured = capsys.readouterr()
        assert code != 0
        assert "FAIL" in captured.err and "runtime budget" in captured.err

    # the suite names live in the CLI, so building the parser loads no criteria;
    # usage, errors and help read as they did when they came from senlab.accept
    USAGE = "usage: senlab accept [-h] [{all,dpseries,gamma,picard,senmod}]\n"

    def test_unknown_suite_is_2(self, capsys):
        assert main(["accept", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.USAGE + (
            "senlab accept: error: argument suite: invalid choice: 'nosuch' "
            "(choose from 'all', 'dpseries', 'gamma', 'picard', 'senmod')\n")

    def test_help_lists_the_suites(self, capsys):
        assert main(["accept", "--help"]) == 0
        assert capsys.readouterr().out == self.USAGE + (
            "\npositional arguments:\n  {all,dpseries,gamma,picard,senmod}\n\n"
            "options:\n  -h, --help            show this help message and exit\n")

    def test_suites_cover_the_criteria_once(self):
        indices = [i for suite in SUITES.values() for i in suite]
        assert sorted(indices) == sorted(accept.CRITERIA)

    def test_dpseries_suite_runs_criteria_1_2_3_10(self, capsys):
        code, rep = run_cli(capsys, "accept", "dpseries")
        assert code == 0 and rep["suite"] == "dpseries" and rep["passed"]
        assert [c["index"] for c in rep["criteria"]] == [1, 2, 3, 10]


class TestDeterminism:
    def test_identical_reports(self, capsys, field_file, tmp_path):
        elem = tmp_path / "x.json"
        elem.write_text(json.dumps({"coeffs": [["5", "1"]]}))
        outputs = []
        for _ in range(2):
            code = main(["field", "trace", "--field", field_file,
                         "--elem", str(elem)])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_emitted_json_reparses(self, capsys, field_file, tmp_path):
        elem = tmp_path / "x.json"
        elem.write_text(json.dumps({"coeffs": [["5", "1"]]}))
        code, rep = run_cli(capsys, "field", "trace", "--field", field_file,
                            "--elem", str(elem))
        assert code == 0
        back = jsonio.decode_scalar(rep["trace"])
        assert back == S.from_int(10, 3, 40)

import contextlib
import io
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import Bures, Induced, ProductDirichlet
from qmeasure.analytics import (
    bures_mean_entropy_exact,
    hs_moment_exact,
    induced_mean_entropy_exact,
    induced_moment_exact,
    radial_cdf_n2,
    radial_density_n2,
)
from qmeasure.cli import main
from qmeasure.stats import ks_test


def run(tmp_path, *args, name="out.txt"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out


def test_sample_spectra_format(tmp_path):
    code, out = run(
        tmp_path, "sample", "--measure", "induced", "--n", "2", "--k", "2",
        "--samples", "3", "--seed", "7",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda_1,lambda_2"
    assert len(lines) == 4
    for row in lines[1:]:
        l1, l2 = map(float, row.split(","))
        assert l1 >= l2 >= 0.0
        assert l1 + l2 == pytest.approx(1.0, abs=1e-10)


def test_sample_is_byte_deterministic(tmp_path):
    args = ("sample", "--measure", "product", "--n", "3", "--s", "0.5",
            "--samples", "40", "--seed", "11")
    _, first = run(tmp_path, *args, name="a.csv")
    _, second = run(tmp_path, *args, name="b.csv")
    assert first.read_bytes() == second.read_bytes()


def test_sample_matrices_format(tmp_path):
    code, out = run(
        tmp_path, "sample", "--measure", "bures", "--n", "2", "--samples", "2",
        "--seed", "3", "--matrices",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("re_0_0,im_0_0,re_0_1")
    vals = np.array([float(v) for v in lines[1].split(",")])
    m = (vals[0::2] + 1j * vals[1::2]).reshape(2, 2)
    assert np.max(np.abs(m - m.conj().T)) < 1e-10
    assert m.trace().real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(m)[0] >= -1e-12


def test_sample_pipeline_bures_radius(tmp_path):
    code, out = run(
        tmp_path, "sample", "--measure", "bures", "--n", "2",
        "--samples", "20000", "--seed", "5",
    )
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    r = 0.5 * (rows[:, 0] - rows[:, 1])
    assert ks_test(r, lambda x: radial_cdf_n2(x, *Bures(2).radial_law())).p_value > 0.01


def test_estimate_json_schema(tmp_path):
    code, out = run(
        tmp_path, "estimate", "--measure", "induced", "--n", "2", "--k", "4",
        "--functional", "purity", "--samples", "5000", "--seed", "9",
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert set(record) == {
        "measure", "functional", "mean", "stderr", "count", "exact",
        "z_score", "seed", "workers",
    }
    assert record["measure"] == {"kind": "induced", "n": 2, "k": 4, "beta": 2}
    assert record["exact"] == pytest.approx(2.0 / 3.0)
    assert abs(record["z_score"]) <= 4.0
    assert record["count"] == 5000


@pytest.mark.parametrize("argv,record", [
    (["--measure", "hs", "--n", "3"], {"kind": "induced", "n": 3, "k": 3, "beta": 2}),
    (["--measure", "induced", "--n", "2", "--k", "5", "--beta", "4"],
     {"kind": "induced", "n": 2, "k": 5, "beta": 4}),
    (["--measure", "product", "--n", "3", "--s", "0.5"], {"kind": "product", "n": 3, "s": 0.5}),
    (["--measure", "bures", "--n", "2"], {"kind": "bures", "n": 2}),
])
def test_estimate_measure_record(tmp_path, argv, record):
    code, out = run(tmp_path, "estimate", *argv, "--functional", "purity", "--samples", "100")
    assert code == 0
    text = out.read_text()
    assert json.loads(text)["measure"] == record
    # key order and number format as written
    assert text.startswith('{"measure": ' + json.dumps(record) + ", ")


def test_estimate_exact_fields(tmp_path):
    code, out = run(
        tmp_path, "estimate", "--measure", "hs", "--n", "2",
        "--functional", "concurrence", "--samples", "2000", "--seed", "2",
    )
    record = json.loads(out.read_text())
    assert record["exact"] == pytest.approx(3.0 * np.pi / 16.0)

    code, out = run(
        tmp_path, "estimate", "--measure", "bures", "--n", "2",
        "--functional", "entropy", "--samples", "2000", "--seed", "2",
    )
    record = json.loads(out.read_text())
    assert record["exact"] == pytest.approx(2 * np.log(2) - 7.0 / 6.0)

    code, out = run(
        tmp_path, "estimate", "--measure", "product", "--n", "2", "--s", "1.0",
        "--functional", "participation_ratio", "--samples", "2000", "--seed", "2",
    )
    record = json.loads(out.read_text())
    assert record["exact"] == pytest.approx(1.5)
    assert record["functional"] == "participation_ratio"

    # psi(2.4) - psi(1.7) from the Beta(s, (n - 1) s) eigenvalue law
    code, out = run(
        tmp_path, "estimate", "--measure", "product", "--n", "2", "--s", "0.7",
        "--functional", "entropy", "--samples", "2000", "--seed", "2",
    )
    record = json.loads(out.read_text())
    assert record["exact"] == pytest.approx(0.4443532948271042, rel=1e-15)
    assert abs(record["z_score"]) <= 4.0

    code, out = run(
        tmp_path, "estimate", "--measure", "induced", "--n", "2", "--k", "1",
        "--functional", "tangle", "--samples", "200",
    )
    record = json.loads(out.read_text())
    assert code == 0 and record["exact"] is None and record["z_score"] is None


@pytest.mark.parametrize("argv, exact", [
    (["--measure", "bures", "--n", "2", "--functional", "tangle"], 0.25),
    (["--measure", "induced", "--n", "2", "--k", "3", "--beta", "1", "--functional",
      "concurrence"], 2.0 / 3.0),
    (["--measure", "product", "--n", "3", "--s", "1", "--functional", "entropy"], 5.0 / 6.0),
    (["--measure", "induced", "--n", "3", "--k", "4", "--beta", "4", "--functional",
      "purity"], 13.0 / 25.0),
])
def test_estimate_exact_from_each_law(tmp_path, argv, exact):
    code, out = run(tmp_path, "estimate", *argv, "--samples", "5000", "--seed", "4")
    record = json.loads(out.read_text())
    assert code == 0
    assert record["exact"] == pytest.approx(exact, rel=1e-15)
    assert abs(record["z_score"]) <= 4.0


def test_estimate_entanglement_needs_n2(capsys):
    code = main(["estimate", "--measure", "induced", "--n", "3", "--k", "3",
                 "--functional", "tangle", "--samples", "100", "--out", os.devnull])
    assert code == 2
    assert "tangle needs N=2 spectra" in capsys.readouterr().err


def test_estimate_product_moment_bound(capsys):
    code = main(["estimate", "--measure", "product", "--n", "3", "--s", "0.7",
                 "--functional", "trace_power", "--nu=-0.7", "--samples", "100"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: need nu > -0.7 at n=3, s=0.7, got -0.7\n"


@pytest.mark.parametrize("argv", [
    ["--s", "1e6", "--nu", "1000"],
    ["--s", "1", "--nu=1e308"],
    ["--s", "1", "--nu=inf"],
])
def test_estimate_product_moment_out_of_range_is_null(tmp_path, argv):
    # the moment leaves the double range (about 1e-477, 3e-616 and 0): no
    # exact value, never a NaN or inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, "estimate", "--measure", "product", "--n", "3", *argv,
                        "--functional", "trace_power", "--samples", "200")
    assert code == 0 and caught == []
    record = json.loads(out.read_text())
    assert record["exact"] is None and record["z_score"] is None


def test_estimate_product_moment_past_the_gamma_ratios(tmp_path):
    # Gamma(s + 2)/Gamma(s) overflows at s = 1e299/3, but the moment is the
    # purity (s + 1)/(3s + 1)
    code, out = run(tmp_path, "estimate", "--measure", "product", "--n", "3", "--s",
                    repr(1e299 / 3), "--nu", "2", "--functional", "trace_power", "--samples", "200")
    assert code == 0
    assert json.loads(out.read_text())["exact"] == 1.0 / 3.0


def test_estimate_workers_contract(tmp_path):
    base = ("estimate", "--measure", "hs", "--n", "2", "--functional", "purity",
            "--samples", "4000", "--seed", "21")
    _, out2 = run(tmp_path, *base, "--workers", "2", name="w2.json")
    _, out2b = run(tmp_path, *base, "--workers", "2", name="w2b.json")
    _, out3 = run(tmp_path, *base, "--workers", "3", name="w3.json")
    assert out2.read_bytes() == out2b.read_bytes()
    assert json.loads(out2.read_text())["mean"] != json.loads(out3.read_text())["mean"]


def test_density_grid_hs(tmp_path):
    code, out = run(
        tmp_path, "density", "--measure", "induced", "--n", "2", "--k", "2",
        "--bins", "10000",
    )
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows[0, 0] == 0.0 and rows[0, 1] == 0.0
    idx = np.where(np.isclose(rows[:, 0], 0.25))[0]
    assert idx.size == 1 and rows[idx[0], 1] == pytest.approx(1.5)
    # smooth density: trapezoid over the uniform grid integrates to one
    mass = np.trapezoid(rows[:, 1], rows[:, 0]) + 0.5 * (rows[-1, 1] + 24 * 0.25) * (
        0.5 - rows[-1, 0]
    )
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_density_selectors(tmp_path):
    for args in (
        ("--measure", "product", "--n", "2", "--s", "1.0"),
        ("--measure", "product", "--n", "2", "--s", "0.5"),
        ("--measure", "bures", "--n", "2"),
        ("--measure", "induced", "--n", "2", "--k", "5"),
    ):
        code, out = run(tmp_path, "density", *args, "--bins", "50")
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (50, 2)
        assert np.all(rows[:, 1] >= 0.0)


def test_density_rejects_unsupported(tmp_path):
    # every product s and every beta has an N = 2 radial law
    code, _ = run(tmp_path, "density", "--measure", "product", "--n", "2", "--s", "0.7")
    assert code == 0
    code, _ = run(tmp_path, "density", "--measure", "bures", "--n", "3")
    assert code == 2
    code, _ = run(tmp_path, "density", "--measure", "induced", "--n", "2", "--k", "1")
    assert code == 2


@pytest.mark.parametrize("argv,measure", [
    (["--measure", "product", "--n", "2", "--s", "0.7"], ProductDirichlet(2, 0.7)),
    (["--measure", "induced", "--n", "2", "--k", "3", "--beta", "1"], Induced(2, 3, 1)),
    (["--measure", "hs", "--n", "2", "--beta", "4"], Induced(2, 2, 4)),
])
def test_density_tabulates_every_radial_law(tmp_path, argv, measure):
    code, out = run(tmp_path, "density", *argv, "--bins", "64")
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 1], radial_density_n2(rows[:, 0], *measure.radial_law()))


def test_ternary_output(tmp_path):
    code, out = run(
        tmp_path, "ternary", "--measure", "induced", "--n", "3", "--k", "3",
        "--samples", "5000", "--resolution", "6", "--seed", "13",
    )
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, dtype=np.int64)
    assert rows.shape == (36, 3)
    assert rows[:, 2].sum() == 5000


def test_ternary_low_s_concentrates_on_corners(tmp_path):
    code, out = run(
        tmp_path, "ternary", "--measure", "product", "--n", "3", "--s", "0.05",
        "--samples", "4000", "--resolution", "2", "--seed", "17",
    )
    assert code == 0
    counts = {(i, j): c for i, j, c in np.loadtxt(out, delimiter=",", skiprows=1, dtype=np.int64)}
    corners = counts[(1, 0)] + counts[(0, 0)] + counts[(0, 2)]
    assert corners > 0.9 * 4000
    assert counts[(0, 1)] < 0.1 * 4000


def test_ternary_requires_n3(tmp_path):
    code, _ = run(tmp_path, "ternary", "--measure", "induced", "--n", "2", "--k", "2")
    assert code == 2


def test_repulsion_suppresses_near_degenerate_spectra():
    # the squared Vandermonde factor thins out near-degenerate eigenvalues
    # relative to the flat Dirichlet(1) measure
    from qmeasure import Induced, ProductDirichlet, RandomStream, sample_spectra

    m = 20000
    induced = sample_spectra(Induced(3, 3, 2), m, RandomStream(19, 0))
    flat = sample_spectra(ProductDirichlet(3, 1.0), m, RandomStream(19, 1))

    def near_degenerate_fraction(spectra):
        gaps = np.minimum(
            spectra[:, 0] - spectra[:, 1], spectra[:, 1] - spectra[:, 2]
        )
        return np.mean(gaps < 0.02)

    assert near_degenerate_fraction(induced) < 0.5 * near_degenerate_fraction(flat)


def test_config_errors_exit_2(tmp_path):
    code, _ = run(tmp_path, "sample", "--measure", "product", "--n", "2",
                  "--samples", "5")  # missing --s
    assert code == 2
    code, _ = run(tmp_path, "sample", "--measure", "induced", "--n", "2", "--k", "2",
                  "--beta", "4", "--samples", "5", "--matrices")
    assert code == 2
    assert main(["sample", "--measure", "wat"]) == 2
    # Dirichlet exponents that cannot be sampled: inf gave NaN rows, and
    # 1e-300 underflows every Gamma variate, so the redraw never ended
    for s in ("inf", "1e-300"):
        code, out = run(tmp_path, "sample", "--measure", "product", "--n", "2",
                        "--s", s, "--samples", "5")
        assert code == 2
        assert not out.exists()


def test_estimate_bures_purity_exact_at_any_n(tmp_path):
    for functional, exact in (("purity", 81.0 / 144.0), ("participation_ratio", 144.0 / 81.0)):
        code, out = run(tmp_path, "estimate", "--measure", "bures", "--n", "4",
                        "--functional", functional, "--samples", "2000", "--seed", "3")
        assert code == 0
        assert json.loads(out.read_text())["exact"] == pytest.approx(exact, rel=1e-15)


def test_estimate_hs_trace_power_small_nu(tmp_path):
    # regression: nu in (-1, 1) used to exit 2 with "moment quadrature unstable"
    code, out = run(tmp_path, "estimate", "--measure", "hs", "--n", "3",
                    "--functional", "trace_power", "--nu", "0.3", "--samples", "20000",
                    "--seed", "4")
    assert code == 0
    record = json.loads(out.read_text())
    assert record["exact"] == hs_moment_exact(3, 0.3)
    assert abs(record["z_score"]) <= 4.0


def test_estimate_exact_values_off_the_diagonal(tmp_path):
    cases = [
        (("induced", "--n", "2", "--k", "5", "--functional", "entropy"),
         induced_mean_entropy_exact(2, 5)),
        (("induced", "--n", "3", "--k", "5", "--functional", "trace_power", "--nu", "1.5"),
         induced_moment_exact(3, 5, 1.5)),
        (("induced", "--n", "4", "--k", "2", "--functional", "trace_power", "--nu", "0.5"),
         induced_moment_exact(4, 2, 0.5)),
        (("bures", "--n", "4", "--functional", "entropy"), bures_mean_entropy_exact(4)),
        (("hs", "--n", "8", "--functional", "trace_power", "--nu", "150"),
         induced_moment_exact(8, 8, 150.0)),
    ]
    for argv, exact in cases:
        code, out = run(tmp_path, "estimate", "--measure", *argv, "--samples", "2000",
                        "--seed", "3")
        assert code == 0
        assert json.loads(out.read_text())["exact"] == exact


def test_estimate_checks_nu_before_sampling(capsys, monkeypatch):
    # the exponent's domain is checked before any sample is drawn, so no
    # overflow warning from the Monte Carlo reaches stderr
    from qmeasure import cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("estimate sampled before checking nu")

    monkeypatch.setattr(cli, "mc_estimate", no_sampling)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", "--measure", "hs", "--n", "3", "--functional", "trace_power",
                     "--nu=-1e308", "--samples", "100000"])
    captured = capsys.readouterr()
    assert code == 2
    assert caught == []
    assert captured.out == ""
    assert captured.err == "error: need nu > -1 at n=3, k=3, got -1e+308\n"


@pytest.mark.parametrize("nu, message", [
    ("1e308", "error: <Tr rho^nu> at n=3, k=3, nu=1e+308 cannot be evaluated in double "
              "precision: its terms underflow\n"),
    ("inf", "error: <Tr rho^nu> at n=3, k=3, nu=inf cannot be evaluated in double "
            "precision: its terms underflow\n"),
], ids=["1e308", "inf"])
def test_estimate_refuses_huge_and_infinite_nu(capsys, nu, message):
    # regression: nu = 1e308 raised OverflowError with a traceback, and
    # nu = inf printed a RuntimeWarning before its error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", "--measure", "hs", "--n", "3", "--functional", "trace_power",
                     f"--nu={nu}", "--samples", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert caught == []
    assert captured.out == ""
    assert captured.err == message


def test_estimate_refuses_a_sample_whose_eigenvalues_underflowed(capsys):
    # regression: about 7% of the Dirichlet(0.005) rows hold an exact 0,
    # where their Gamma variates underflow, and the finite moment came out
    # infinite, with numpy's "divide by zero" warning and a JSON error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", "--measure", "product", "--n", "3", "--s", "0.005",
                     "--functional", "trace_power", "--nu=-0.001", "--samples", "20000"])
    captured = capsys.readouterr()
    assert code == 2
    assert caught == []
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: Tr rho^nu at nu=-0.001 < 0 is infinite on ")
    assert lines[0].endswith("underflowed to 0 in double precision")


_SPECS = st.one_of(
    st.builds(Induced, st.integers(1, 5), st.integers(1, 6), st.sampled_from([1, 2, 4])),
    st.builds(ProductDirichlet, st.integers(1, 4), st.floats(1e-5, 50.0)),
    st.builds(Bures, st.integers(1, 5)),
)


def _measure_argv(measure) -> list[str]:
    record = measure.to_json()
    argv = ["--measure", record.pop("kind")]
    for key, value in record.items():
        argv += [f"--{key}", repr(value)]
    return argv


@settings(deadline=None, max_examples=60)
@given(measure=_SPECS, below=st.one_of(st.just(0.0), st.floats(0.0, 1e308)))
def test_estimate_refuses_divergent_moments_before_sampling(measure, below):
    # <Tr rho^nu> is infinite for nu <= moment_domain(): one error line, no
    # sample drawn and no warning, under every measure
    from qmeasure import cli

    nu = measure.moment_domain() - below

    def no_sampling(*args, **kwargs):
        raise AssertionError("estimate sampled a divergent moment")

    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr):
        mp.setattr(cli, "mc_estimate", no_sampling)
        warnings.simplefilter("always")
        code = main(["estimate", *_measure_argv(measure), "--functional", "trace_power",
                     f"--nu={nu!r}", "--out", os.devnull])
    assert code == 2
    assert caught == []
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: need nu > ")


_NON_FINITE_ESTIMATES = [
    ("induced_beta1_rank_deficient", ["--measure", "induced", "--beta", "1", "--n", "3",
                                      "--k", "2"]),
    ("product_underflow", ["--measure", "product", "--n", "3", "--s", "0.005"]),
    ("induced_beta2_rank_deficient", ["--measure", "induced", "--n", "3", "--k", "2"]),
]


@pytest.mark.parametrize("argv", [c[1] for c in _NON_FINITE_ESTIMATES],
                         ids=[c[0] for c in _NON_FINITE_ESTIMATES])
def test_estimate_non_finite_exits_2(tmp_path, capsys, argv):
    # Tr rho^(-1/2) is infinite on a zero eigenvalue: JSON cannot carry it
    code, out = run(tmp_path, "estimate", *argv, "--functional", "trace_power",
                    "--nu", "-0.5", "--samples", "2000", "--seed", "1")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


def test_sample_bures_n6(tmp_path):
    code, out = run(tmp_path, "sample", "--measure", "bures", "--n", "6",
                    "--samples", "5", "--seed", "1")
    assert code == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (5, 6)


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("QMEASURE_SEED", "123")
    args = ("sample", "--measure", "induced", "--n", "2", "--k", "2", "--samples", "5")
    _, via_env = run(tmp_path, *args, name="env.csv")
    monkeypatch.delenv("QMEASURE_SEED")
    _, via_flag = run(tmp_path, *args, "--seed", "123", name="flag.csv")
    assert via_env.read_bytes() == via_flag.read_bytes()


def test_main_reuses_one_parser_without_leaking_flags(tmp_path, monkeypatch):
    from qmeasure.cli import build_parser
    from qmeasure.stats import DEFAULT_SEED

    monkeypatch.delenv("QMEASURE_SEED", raising=False)
    sample = ["sample", "--measure", "hs", "--n", "3", "--samples", "20", "--seed", "5"]
    runs = [sample + ["--format", "json"], sample,
            ["estimate", "--measure", "hs", "--n", "2", "--functional", "purity",
             "--samples", "200"],
            sample + ["--format", "json"]]
    outputs = []
    for i, argv in enumerate(runs):
        code, out = run(tmp_path, *argv, name=f"{i}.out")
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[3] == outputs[0]
    # the CSV call got neither the JSON format nor other values of the first call
    as_json = json.loads(outputs[0])["rows"]
    assert outputs[1].startswith(b"lambda_1,lambda_2,lambda_3\n")
    assert np.array_equal(np.loadtxt(tmp_path / "1.out", delimiter=",", skiprows=1), as_json)
    # nor did the estimate get the samples' seed or count
    record = json.loads(outputs[2])
    assert (record["seed"], record["count"], record["workers"]) == (DEFAULT_SEED, 200, 1)
    assert build_parser() is not build_parser()


def test_verify_quick(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--quick", "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    lines = [l for l in captured.out.splitlines() if l.startswith("criterion")]
    assert len(lines) == 13 and all("PASS" in l for l in lines)
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert len(report["criteria"]) == 13
    assert report["samples"] == 10000


def test_sample_json_format(tmp_path):
    code, out = run(
        tmp_path, "sample", "--measure", "induced", "--n", "2", "--k", "2",
        "--samples", "4", "--seed", "7", "--format", "json", name="s.json",
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["lambda_1", "lambda_2"]
    assert len(payload["rows"]) == 4
    for l1, l2 in payload["rows"]:
        assert l1 + l2 == pytest.approx(1.0, abs=1e-10)
    # json and csv carry identical sampled values
    _, csv_out = run(
        tmp_path, "sample", "--measure", "induced", "--n", "2", "--k", "2",
        "--samples", "4", "--seed", "7", name="s.csv",
    )
    csv_rows = np.loadtxt(csv_out, delimiter=",", skiprows=1)
    assert np.allclose(csv_rows, np.asarray(payload["rows"]), rtol=0, atol=0)


def test_ternary_json_format(tmp_path):
    code, out = run(
        tmp_path, "ternary", "--measure", "product", "--n", "3", "--s", "1.0",
        "--samples", "500", "--resolution", "3", "--seed", "4", "--format", "json",
        name="t.json",
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["bin_i", "bin_j", "count"]
    assert sum(r[2] for r in payload["rows"]) == 500


def test_json_floats_have_17_digits(tmp_path):
    code, out = run(
        tmp_path, "estimate", "--measure", "hs", "--n", "2",
        "--functional", "purity", "--samples", "500", "--seed", "1",
    )
    record_text = out.read_text()
    parsed = json.loads(record_text)
    # round-trip: re-serializing the parsed mean must preserve the value
    assert float(f"{parsed['mean']:.17g}") == parsed["mean"]


_AWKWARD_FLOATS = np.array([
    [0.0, -0.0, 1.0], [5e-324, 2.2250738585072014e-308, 1e-300],
    [1.0 / 3.0, 0.1, 1e16], [123456789.123, 1.7976931348623157e308, -2.5e-7],
])


def _per_value_table(fmt, columns, rows):
    """Reference: the table written one value at a time."""
    from qmeasure.cli import _fmt_float, _to_json

    if fmt == "json":
        return _to_json({"columns": columns, "rows": rows.tolist()}) + "\n"
    lines = [",".join(columns)]
    for row in rows.tolist():
        lines.append(",".join(str(v) if isinstance(v, int) else _fmt_float(v) for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bulk_table_writer_matches_per_value_path(tmp_path, fmt):
    from types import SimpleNamespace

    from qmeasure.cli import _emit_table

    columns = ["a", "b", "c"]
    cells = np.array([[0, 0, 12], [0, 1, -3], [7, 2, 2**62]], dtype=np.int64)
    for rows in (_AWKWARD_FLOATS, _AWKWARD_FLOATS[:1], np.random.default_rng(5).random((50, 3)),
                 cells):
        out = tmp_path / "bulk"
        _emit_table(SimpleNamespace(format=fmt, out=str(out)), columns, rows)
        assert out.read_bytes() == _per_value_table(fmt, columns, rows).encode()


def test_bulk_json_writer_rejects_non_finite(tmp_path):
    from types import SimpleNamespace

    from qmeasure.cli import _emit_table

    out = tmp_path / "out"
    for bad in (np.inf, -np.inf, np.nan):
        rows = _AWKWARD_FLOATS.copy()
        rows[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _emit_table(SimpleNamespace(format="json", out=str(out)), ["a", "b", "c"], rows)
    assert not out.exists()


_SIZED_COMMANDS = [
    ("sample", ["sample", "--measure", "induced", "--n", "2"], "--samples"),
    ("sample_matrices", ["sample", "--measure", "bures", "--n", "2", "--matrices"],
     "--samples"),
    ("ternary_samples", ["ternary", "--measure", "induced", "--n", "3"], "--samples"),
    ("ternary_resolution", ["ternary", "--measure", "induced", "--n", "3",
                            "--samples", "50"], "--resolution"),
    ("density", ["density", "--measure", "induced", "--n", "2", "--k", "5"], "--bins"),
    ("estimate_samples", ["estimate", "--measure", "hs", "--n", "2",
                          "--functional", "purity"], "--samples"),
    ("estimate_workers", ["estimate", "--measure", "hs", "--n", "2",
                          "--functional", "purity", "--samples", "200"], "--workers"),
]


@pytest.mark.parametrize("size", [0, -2])
@pytest.mark.parametrize("name,argv,flag", _SIZED_COMMANDS, ids=[c[0] for c in _SIZED_COMMANDS])
def test_non_positive_sizes_exit_2(tmp_path, capsys, name, argv, flag, size):
    code, out = run(tmp_path, *argv, flag, str(size), "--seed", "1")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


_FLOATS = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, -1.0, 1e-300, 5e-324, 1e-5, 0.5, 1.0, 3.0, 1e308,
                     float("inf"), float("-inf"), float("nan")]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(deadline=None, max_examples=50)
@given(
    command=st.sampled_from(["sample", "matrices", "estimate", "density", "ternary"]),
    measure=st.sampled_from(["induced", "hs", "product", "bures"]),
    functional=st.sampled_from(["entropy", "purity", "participation", "participation_ratio",
                                "tangle", "concurrence", "trace_power"]),
    beta=st.sampled_from([1, 2, 4]),
    n=st.integers(-1, 4),
    k=st.one_of(st.none(), st.integers(-1, 4)),
    samples=st.integers(-1, 200),
    s=_FLOATS,
    nu=_FLOATS,
    workers=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
)
def test_cli_exit_codes_are_0_or_2(command, measure, functional, beta, n, k, samples, s, nu,
                                   workers, seed):
    argv = ["sample" if command == "matrices" else command, "--measure", measure,
            "--n", str(n), "--beta", str(beta), "--seed", str(seed), "--out", os.devnull]
    if k is not None:
        argv += ["--k", str(k)]
    if s is not None:
        argv.append(f"--s={s!r}")  # "=" keeps "-inf" from reading as a flag
    if command in ("sample", "matrices", "estimate", "ternary"):
        argv += ["--samples", str(samples)]
    if command == "matrices":
        argv.append("--matrices")
    if command == "estimate":
        argv += ["--functional", functional, "--workers", str(workers)]
        if nu is not None:
            argv.append(f"--nu={nu!r}")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()

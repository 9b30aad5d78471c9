"""The benchmark workloads: their inputs, the commands of one pass, and the checks of a pass.

A pass is one round of the same operations.  Each CLI command is one
operation; on mc-paper-grid each estimator fit on each replication is one
more.  A command fails on a non-zero exit code or a failed check.  The only
failure expected today is the knots fit of wind-wide (``KNOWN_FAULT``).
"""

import json
import os

import numpy as np

import checks
import inputs

LEVEL = 0.95
N_SE = 5.0  # a fit's estimate must lie within this many reported SEs of the generating beta
D_GRID = [0.0, 0.01, 0.1]
DELTA_GRID = [0.1, 0.25, 0.5]

# the wind-wide knots fit must reproduce the m/s fit up to the unit change; it
# does not while corr.spd_project mixes covariance and correlation scales
KNOWN_FAULT = ("wind-wide", "fit_knots", "knots_scale_invariance")


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = int(seed)

    def path(self, name):
        return os.path.join(self.workdir, name)

    def ops_per_pass(self):
        return len(self.commands())

    def check_pass(self, result):
        """Returns {command name: CheckLog} and the operations failed outside the commands."""
        raise NotImplementedError

    def timings(self, result):
        """The pass's fit_s, diagnose_s and mc_reps_per_s, in reference seconds (see probe.py)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# mc-paper-grid
# ---------------------------------------------------------------------------

class McPaperGrid(Workload):
    """replicate-tables at the paper design: n=500, m=5, beta0=(0.5, 0.2), alpha=0.7."""

    name = "mc-paper-grid"
    N, M, BETA0, ALPHA = 500, 5, (0.5, 0.2), 0.7
    S = 20
    TRUTHS = ("independence", "compound_symmetry", "ar1")
    LABELS = {"independence": "R1", "compound_symmetry": "R2", "ar1": "R3"}
    FIXED = {"independence": ("independence", 0.0), "cs": ("compound_symmetry", ALPHA),
             "ar1": ("ar1", ALPHA)}
    ESTIMATORS = ("independence", "cs", "ar1", "two_step", "quasi_true")

    def prepare(self):
        self.prefix = self.path("mc")
        normals = np.stack([checks.philox_normals(self.seed, rep, self.N, self.M)
                            for rep in range(self.S)])
        self.series = {}
        self.reference = {}
        for truth in self.TRUTHS:
            corr = checks.fixed_corr(truth, self.ALPHA, self.M)
            ys, Xs = checks.ar2_replications(normals, corr, self.BETA0)
            self.series[truth] = (ys, Xs)
            cols = {}
            for label, (kind, alpha) in self.FIXED.items():
                cols[label] = checks.gls_replications(Xs, ys, checks.fixed_corr(kind, alpha, self.M), LEVEL)
            cols["quasi_true"] = checks.gls_replications(Xs, ys, corr, LEVEL)
            self.reference[truth] = cols
        return {"replications": self.S * len(self.TRUTHS), "n": self.N, "m": self.M}

    def commands(self):
        return [{"name": "replicate_tables", "argv": [
            "replicate-tables", "--n", str(self.N), "--m", str(self.M),
            "--beta0", ",".join(map(str, self.BETA0)), "--alpha", str(self.ALPHA),
            "--s", str(self.S), "--level", str(LEVEL), "--seed", str(self.seed),
            "--output", self.prefix]}]

    def ops_per_pass(self):
        return 1 + self.S * len(self.TRUTHS) * len(self.ESTIMATORS)

    def timings(self, result):
        t = result["commands"][0]["ref_s"]
        # the pass is one replicate-tables command: all of it is simulation and fitting
        return {"fit_s": t, "diagnose_s": t, "mc_reps_per_s": self.S * len(self.TRUTHS) / t}

    def check_pass(self, result):
        log = checks.CheckLog()
        fits_failed = self.S * len(self.TRUTHS) * len(self.ESTIMATORS)
        if not log.expect(result["commands"][0]["code"] == 0, "exit_code",
                          f"exit code {result['commands'][0]['code']}"):
            return {"replicate_tables": log}, fits_failed
        payload = _load(self.prefix + ".json")
        fits_failed = sum(e["failures"] for r in payload["reports"] for e in r["estimators"])
        self._check_payload(log, payload)
        self._check_tables(log, payload)
        self._check_two_step_properties(log)
        return {"replicate_tables": log}, fits_failed

    def _check_payload(self, log, payload):
        beta0 = np.asarray(self.BETA0)
        reports = payload["reports"]
        log.expect([r["design"]["truth"] for r in reports] == list(self.TRUTHS), "truths",
                   "reports are not the three truths in order")
        for report in reports:
            truth = report["design"]["truth"]
            d = report["design"]
            log.expect((d["n"], d["m"], tuple(d["beta0"]), d["alpha0"], d["seed"], report["s"])
                       == (self.N, self.M, self.BETA0, self.ALPHA, self.seed, self.S),
                       "design_echo", f"{truth}: design echo differs")
            est = {e["label"]: e for e in report["estimators"]}
            log.expect(tuple(est) == self.ESTIMATORS, "estimators", "estimator columns differ")
            if tuple(est) != self.ESTIMATORS:
                continue
            ref = self.reference.get(truth)
            if ref is None:
                continue
            ref_mse = None
            for label in ("quasi_true", "independence", "cs", "ar1"):
                beta, lo, hi = ref[label]
                err = beta - beta0
                bias, mse = err.mean(axis=0), (err ** 2).mean(axis=0)
                covered = (lo <= beta0) & (beta0 <= hi)
                # an endpoint within 1e-9 of beta0 may fall either side under round-off
                near = (np.abs(lo - beta0) < 1e-9) | (np.abs(hi - beta0) < 1e-9)
                if label == "quasi_true":
                    ref_mse = mse
                e = est[label]
                tag = f"{truth}/{label}"
                log.expect(e["failures"] == 0, "mc_failures", f"{tag}: {e['failures']} failures")
                log.close("mc_bias", e["bias"], bias, rtol=1e-8, atol=1e-12)
                log.close("mc_rb", e["rb"], bias / beta0, rtol=1e-8, atol=1e-12)
                log.close("mc_mse", e["mse"], mse, rtol=1e-8)
                log.close("mc_re", e["re"], mse / ref_mse, rtol=1e-8)
                log.close("mc_coverage", e["coverage"], covered.mean(axis=0), rtol=0.0,
                          atol=near.sum(axis=0).max() / self.S + 1e-12)
            e = est["two_step"]
            bias, mse = np.asarray(e["bias"]), np.asarray(e["mse"])
            cov = np.asarray(e["coverage"])
            tag = f"{truth}/two_step"
            log.expect(e["failures"] == 0, "mc_failures", f"{tag}: {e['failures']} failures")
            log.close("mc_rb", e["rb"], bias / beta0, rtol=1e-12)
            log.close("mc_re", e["re"], mse / ref_mse, rtol=1e-8)
            log.expect(np.all(mse >= bias ** 2 * (1 - 1e-12)), "mc_mse_ge_bias2", f"{tag}: mse < bias^2")
            log.close("mc_coverage_grid", cov * self.S, np.round(cov * self.S), rtol=0.0, atol=1e-9)
            sd = np.sqrt(np.maximum(mse - bias ** 2, 0.0))
            log.expect(np.all(np.abs(bias) <= 6.0 * sd / np.sqrt(self.S) + 0.02), "mc_two_step_bias",
                       f"{tag}: bias {bias.tolist()} implausible")

    def _check_tables(self, log, payload):
        for table, metric in (("table1", "rb"), ("table2", "re")):
            with open(f"{self.prefix}_{table}.csv", "r", encoding="utf-8", newline="") as fh:
                lines = fh.read().split("\n")
            log.expect(lines[0] == "estimator,truth,component,value" and lines[-1] == "",
                       "table_header", f"{table}: header or final newline differs")
            rows = [line.split(",") for line in lines[1:-1]]
            want = [[e["label"], self.LABELS[r["design"]["truth"]], str(k + 1), v]
                    for r in payload["reports"] for e in r["estimators"]
                    for k, v in enumerate(e[metric])]
            log.expect(len(rows) == len(self.ESTIMATORS) * len(self.TRUTHS) * 2, "table_rows",
                       f"{table}: {len(rows)} rows")
            same = len(rows) == len(want) and all(
                got[:3] == w[:3] and float(got[3]) == float(w[3]) for got, w in zip(rows, want))
            log.expect(same, "table_matches_json", f"{table}: rows differ from the JSON {metric}")

    def _check_two_step_properties(self, log):
        """On one replication per truth: R_i SPD, measurability, and beta solves its closed form."""
        from mtgee.estfun import fit_two_step
        from mtgee.model import ClusterSeries

        reps = (0, self.S // 2, self.S - 1)
        changed_steps = (self.M + 1, self.N // 2, self.N - 2)
        for truth, rep, k in zip(self.TRUTHS, reps, changed_steps):
            ys, Xs = self.series[truth][0][rep], self.series[truth][1][rep]
            res = fit_two_step(ClusterSeries(ys=ys, Xs=Xs))
            seq = np.asarray(res.corr_seq)
            tag = f"{truth} rep {rep}"
            log.close("two_step_R_symmetric", seq, np.swapaxes(seq, 1, 2), rtol=0.0,
                      atol=1e-12 * float(np.max(np.abs(seq))))
            log.expect(np.all(np.linalg.eigvalsh(seq)[:, 0] > 0), "two_step_R_spd",
                       f"{tag}: an R_i is not positive definite")
            ys_k = ys.copy()
            ys_k[k] += 1.0
            seq_k = np.asarray(fit_two_step(ClusterSeries(ys=ys_k, Xs=Xs)).corr_seq)
            log.expect(np.array_equal(seq_k[:k + 1], seq[:k + 1]), "two_step_measurable",
                       f"{tag}: changing y_{k} moved R_0..R_{k}")
            rinv = np.linalg.inv(seq)
            w_x = rinv @ Xs
            h_mat = np.einsum("nap,nak->pk", Xs, w_x)
            rhs = np.einsum("nak,na->k", w_x, ys)
            log.close("two_step_closed_form", res.beta, np.linalg.solve(h_mat, rhs), rtol=1e-10)


# ---------------------------------------------------------------------------
# wind-wide
# ---------------------------------------------------------------------------

class WindWide(Workload):
    """Wide CSV of daily wind at 8 stations, its copy in knots, two-step fits and diagnose."""

    name = "wind-wide"

    def prepare(self):
        self.ms_csv, self.kn_csv = self.path("wind_ms.csv"), self.path("wind_knots.csv")
        info = inputs.write_wind_csvs(self.seed, self.ms_csv, self.kn_csv)
        m = inputs.WIND_MODEL["stations"]
        self.wind_cols, self.temp_cols = inputs.wind_station_names(m)
        self.ref = {
            "ms": checks.read_wide(self.ms_csv, self.wind_cols, [self.temp_cols], 2),
            "knots": checks.read_wide(self.kn_csv, self.wind_cols, [self.temp_cols], 2),
        }
        return info

    def _argv(self, command, data, out, extra=()):
        return [command, "--data", data, "--response", ",".join(self.wind_cols),
                "--exog", ",".join(self.temp_cols), "--lags", "2", "--method", "two_step",
                "--level", str(LEVEL), "--seed", str(self.seed), *extra, "--output", out]

    def commands(self):
        return [
            {"name": "fit_ms", "argv": self._argv("fit", self.ms_csv, self.path("fit_ms.json"))},
            {"name": "fit_knots", "argv": self._argv("fit", self.kn_csv, self.path("fit_knots.json"))},
            {"name": "diagnose", "argv": self._argv(
                "diagnose", self.ms_csv, self.path("diagnose.json"),
                ["--d-grid", ",".join(format(d, "g") for d in D_GRID),
                 "--delta-grid", ",".join(format(d, "g") for d in DELTA_GRID)])},
        ]

    def timings(self, result):
        sec = {c["name"]: c["ref_s"] for c in result["commands"]}
        return {"fit_s": sec["fit_ms"] + sec["fit_knots"], "diagnose_s": sec["diagnose"],
                "mc_reps_per_s": 1.0 / result["ref_wall_s"]}

    def check_pass(self, result):
        logs = {c["name"]: checks.CheckLog() for c in result["commands"]}
        codes = {c["name"]: c["code"] for c in result["commands"]}
        for name, log in logs.items():
            log.expect(codes[name] == 0, "exit_code", f"exit code {codes[name]}")
        beta_true = np.asarray(inputs.WIND_MODEL["beta"])
        k = inputs.KNOTS_PER_MS
        unit_scale = np.array([k, 1.0, 1.0, k])  # intercept and air-temperature slope carry the unit
        fits = {}
        for name, key, scale in (("fit_ms", "ms", 1.0), ("fit_knots", "knots", unit_scale)):
            if codes[name] != 0:
                continue
            payload = _load(self.path(f"{name}.json"))
            Xs, ys, x_next = self.ref[key]
            cfg = payload["config"]
            logs[name].expect((cfg["n"], cfg["m"], cfg["p"]) == Xs.shape, "config_echo",
                              "n, m, p differ from the CSV")
            fits[name] = checks.check_estimate_block(
                logs[name], payload["result"], x_next, "identity", LEVEL, beta_true * scale, N_SE)
        if len(fits) == 2:
            logs["fit_knots"].close(KNOWN_FAULT[2], fits["fit_knots"], fits["fit_ms"] * unit_scale,
                                    rtol=1e-8, atol=1e-10)
        if codes["diagnose"] == 0 and "fit_ms" in fits:
            checks.check_diagnose(logs["diagnose"], _load(self.path("diagnose.json")),
                                  self.ref["ms"][0], fits["fit_ms"], "identity", D_GRID, DELTA_GRID)
        return logs, 0


# ---------------------------------------------------------------------------
# binary-long
# ---------------------------------------------------------------------------

class BinaryLong(Workload):
    """Long CSV of 0/1 responses (rows shuffled), logistic Newton fits and diagnose."""

    name = "binary-long"
    CS_ALPHA = 0.7

    def prepare(self):
        self.csv = self.path("binary_long.csv")
        info = inputs.write_binary_csv(self.seed, self.csv)
        self.ref = checks.read_long(self.csv, "day", "station", "y", ["x1"], 2)
        return info

    def _argv(self, command, corr, out, extra=()):
        return [command, "--data", self.csv, "--layout", "long", "--time-col", "day",
                "--unit-col", "station", "--response", "y", "--exog", "x1", "--lags", "2",
                "--link", "logistic", "--method", "newton", "--corr", corr,
                "--alpha", str(self.CS_ALPHA), "--level", str(LEVEL), "--seed", str(self.seed),
                *extra, "--output", out]

    def commands(self):
        return [
            {"name": "fit_empirical", "argv": self._argv("fit", "empirical", self.path("fit_emp.json"))},
            {"name": "fit_cs", "argv": self._argv("fit", "cs", self.path("fit_cs.json"))},
            {"name": "diagnose", "argv": self._argv(
                "diagnose", "empirical", self.path("diagnose.json"),
                ["--d-grid", ",".join(format(d, "g") for d in D_GRID),
                 "--delta-grid", ",".join(format(d, "g") for d in DELTA_GRID)])},
        ]

    def timings(self, result):
        sec = {c["name"]: c["ref_s"] for c in result["commands"]}
        return {"fit_s": sec["fit_empirical"] + sec["fit_cs"], "diagnose_s": sec["diagnose"],
                "mc_reps_per_s": 1.0 / result["ref_wall_s"]}

    def check_pass(self, result):
        logs = {c["name"]: checks.CheckLog() for c in result["commands"]}
        codes = {c["name"]: c["code"] for c in result["commands"]}
        for name, log in logs.items():
            log.expect(codes[name] == 0, "exit_code", f"exit code {codes[name]}")
        Xs, ys, x_next = self.ref
        beta_true = np.asarray(inputs.BINARY_MODEL["beta"])
        fits = {}
        for name, out in (("fit_empirical", "fit_emp.json"), ("fit_cs", "fit_cs.json")):
            if codes[name] != 0:
                continue
            payload = _load(self.path(out))
            cfg, res = payload["config"], payload["result"]
            logs[name].expect((cfg["n"], cfg["m"], cfg["p"]) == Xs.shape, "config_echo",
                              "n, m, p differ from the CSV")
            logs[name].expect(res["solver"] is not None and res["solver"]["converged"],
                              "newton_converged", "Newton did not report convergence")
            fits[name] = checks.check_estimate_block(
                logs[name], res, x_next, "logistic", LEVEL, beta_true, N_SE)
            if name == "fit_cs":
                rinv = np.linalg.inv(checks.fixed_corr("compound_symmetry", self.CS_ALPHA, Xs.shape[1]))
                g, _, _, psi = checks.gee_pieces(Xs, ys, fits[name], "logistic", rinv)
                logs[name].expect(np.max(np.abs(g)) <= 1e-7, "g_at_root",
                                  f"max |g_n(beta_hat)| = {np.max(np.abs(g)):.3e}")
                logs[name].close("psi_fixed_r_sandwich", res["psi"], psi, rtol=1e-8,
                                 atol=1e-10 * float(np.max(np.abs(psi))))
        if codes["diagnose"] == 0 and "fit_empirical" in fits:
            checks.check_diagnose(logs["diagnose"], _load(self.path("diagnose.json")), Xs,
                                  fits["fit_empirical"], "logistic", D_GRID, DELTA_GRID)
        return logs, 0


WORKLOADS = {w.name: w for w in (McPaperGrid, WindWide, BinaryLong)}

"""Seeded input generators for the benchmark workloads.

Everything the program reads is made here from ``--seed``: the same seed
gives byte-identical CSV files.  The generating models and their
coefficients are recorded in README.md; the checks read them back from the
``*_MODEL`` constants below.
"""

import csv
import datetime
import math

import numpy as np

KNOTS_PER_MS = 3600.0 / 1852.0  # 1 knot = 1852 m/h

# AR(2)-plus-air-temperature wind model, one row per day, m stations.
# y_tj = c + b1 y_{t-1,j} + b2 y_{t-2,j} + g z_tj + e_tj, e_t ~ N(0, sigma^2 R)
# with R_jk = rho^|j-k| (neighbouring stations share more weather).
WIND_MODEL = {
    "days": 5_000,
    "stations": 8,
    "beta": (1.2, 0.45, 0.2, 0.03),  # intercept, lag 1, lag 2, air temperature
    "sigma": 1.5,
    "rho": 0.6,
    "missing_share": 0.01,  # share of air-temperature cells left empty
    "burn_in": 200,
}

# Logistic model with two lags of the binary response and one covariate,
# m stations whose same-day responses are tied by a Gaussian copula with
# compound-symmetry correlation; marginally P(y_tj = 1 | past) = mu(x_tj' beta).
BINARY_MODEL = {
    "days": 6_000,
    "stations": 6,
    "beta": (-0.4, 0.9, 0.4, 0.7),  # intercept, lag 1, lag 2, x1
    "copula_cs": 0.4,
    "x_ar": 0.5,
    "burn_in": 50,
}

_TAGS = {"wind": 1, "binary": 2}


_erfc = np.vectorize(math.erfc, otypes=[np.float64])


def _rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([int(seed), _TAGS[tag]]))


def wind_station_names(m):
    return [f"wind_s{j + 1}" for j in range(m)], [f"airtemp_s{j + 1}" for j in range(m)]


def write_wind_csvs(seed, ms_path, knots_path):
    """Write the m/s file and the same file with wind columns in knots; returns their sizes."""
    spec = WIND_MODEL
    days = spec["days"]
    m = spec["stations"]
    rng = _rng(seed, "wind")
    c, b1, b2, g = spec["beta"]
    total = days + spec["burn_in"]

    idx = np.arange(m)
    chol = np.linalg.cholesky(spec["sigma"] ** 2 * spec["rho"] ** np.abs(idx[:, None] - idx[None, :]))
    shocks = rng.standard_normal((total, m)) @ chol.T

    # air temperature (deg F): seasonal cycle + station offset + AR(1) weather
    t = np.arange(total)
    season = 50.0 + 20.0 * np.sin(2.0 * np.pi * t / 365.25 - 1.9)
    offset = rng.uniform(-3.0, 3.0, size=m)
    common = rng.standard_normal(total)
    local = rng.standard_normal((total, m))
    weather = np.empty((total, m))
    state = np.zeros(m)
    for k in range(total):
        state = 0.8 * state + 2.0 * (0.7 * common[k] + 0.7 * local[k])
        weather[k] = state
    temp = np.round(season[:, None] + offset[None, :] + weather, 1)

    y = np.empty((total, m))
    prev1 = prev2 = np.full(m, 7.0)
    for k in range(total):
        y[k] = c + b1 * prev1 + b2 * prev2 + g * temp[k] + shocks[k]
        prev2, prev1 = prev1, y[k]
    y = np.round(y[spec["burn_in"]:], 3)
    temp = temp[spec["burn_in"]:]

    missing = rng.random((days, m)) < spec["missing_share"]
    wind_cols, temp_cols = wind_station_names(m)
    start = datetime.date(1990, 1, 1)
    with open(ms_path, "w", newline="", encoding="utf-8") as f_ms, \
            open(knots_path, "w", newline="", encoding="utf-8") as f_kn:
        w_ms = csv.writer(f_ms, lineterminator="\n")
        w_kn = csv.writer(f_kn, lineterminator="\n")
        header = ["date"] + wind_cols + temp_cols
        w_ms.writerow(header)
        w_kn.writerow(header)
        for k in range(days):
            date = (start + datetime.timedelta(days=k)).isoformat()
            wind_text = [format(v, ".3f") for v in y[k]]
            temp_text = ["" if missing[k, j] else format(temp[k, j], ".1f") for j in range(m)]
            w_ms.writerow([date] + wind_text + temp_text)
            knots_text = [format(float(s) * KNOTS_PER_MS, ".17g") for s in wind_text]
            w_kn.writerow([date] + knots_text + temp_text)
    return {"days": days, "stations": m, "missing_cells": int(missing.sum())}


def write_binary_csv(seed, path):
    """Long layout (day, station, y, x1), one row per (day, station), shuffled."""
    spec = BINARY_MODEL
    days = spec["days"]
    m = spec["stations"]
    rng = _rng(seed, "binary")
    b0, b1, b2, g = spec["beta"]
    total = days + spec["burn_in"]

    x = np.empty((total, m))
    state = np.zeros(m)
    innov = rng.standard_normal((total, m))
    for k in range(total):
        state = spec["x_ar"] * state + np.sqrt(1.0 - spec["x_ar"] ** 2) * innov[k]
        x[k] = state
    x = np.round(x, 6)

    alpha = spec["copula_cs"]
    cs = np.full((m, m), alpha)
    np.fill_diagonal(cs, 1.0)
    latent = rng.standard_normal((total, m)) @ np.linalg.cholesky(cs).T
    u = 0.5 * _erfc(-latent / math.sqrt(2.0))  # uniform margins, correlated across stations
    y = np.zeros((total, m), dtype=np.int64)
    prev1 = prev2 = np.zeros(m)
    for k in range(total):
        theta = b0 + b1 * prev1 + b2 * prev2 + g * x[k]
        y[k] = u[k] < 1.0 / (1.0 + np.exp(-theta))
        prev2, prev1 = prev1, y[k].astype(np.float64)
    y = y[spec["burn_in"]:]
    x = x[spec["burn_in"]:]

    rows = [(k + 1, j) for k in range(days) for j in range(m)]
    order = rng.permutation(len(rows))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["day", "station", "y", "x1"])
        for r in order:
            day, j = rows[r]
            writer.writerow([day, f"st{j + 1}", int(y[day - 1, j]), format(x[day - 1, j], ".6f")])
    return {"days": days, "stations": m, "rows": len(rows), "positive_share": float(y.mean())}

"""Output oracles, each independent of the code path it checks.

* presets: numeric CSV cells against the outputs stored in ``reference/``
  when this benchmark was written, and the fig2 effective curve against the
  closed form ``analytic.e_one_one``.
* sweep-uniform: sweep rows against stored rows.
* full-disordered: E(t) and the norm against exact evolution by a dense
  real-symmetric eigendecomposition of the sector Hamiltonian, itself built
  here from Kronecker products and projected onto the sector.
* build-disordered: the label order and the (row, col) pattern against
  stored checksums, every stored value against the value derived here from
  the two labels it connects, the battery energy against the verified
  matrix entries, and, at 3+3, the sorted spectra of the full and effective
  sector Hamiltonians against the Kronecker construction.

Tolerances admit rounding-level changes and the documented <= 1e-8
improvements of the noisy-mode solver, and reject any wrong answer.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp

import magnon_battery as mb
from workloads import OMEGA_OVER_DELTA, REFERENCE, Disorder, csv_body, sha256, table_lines

# stored-output comparison, |got - ref| <= ATOL + RTOL |ref|
ATOL = 1e-6
RTOL = 1e-6
# fig2 effective curve against the closed form
ANALYTIC_TOL = 1e-9
# full-disordered against exact evolution; the integrator runs at tol 1e-10
# in the lab frame and today reaches below 1e-6 in E and norm over this horizon
ENERGY_TOL = 1e-5
NORM_TOL = 1e-5
# matrix entries, and sums over them (energies, eigenvalues), relative to scale
VALUE_RTOL = 1e-12
SUM_RTOL = 1e-10

OMEGA = OMEGA_OVER_DELTA
OMEGA_M = OMEGA_OVER_DELTA + 1.0


def table_rows(text: str) -> tuple[str, list[list[str]]]:
    lines = table_lines(text)
    return lines[0], [line.split(",") for line in lines[1:]]


def split_cells(rows) -> tuple[np.ndarray, np.ndarray]:
    """Label cells (joined) and float cells of each row."""
    labels, values = [], []
    for row in rows:
        text, nums = [], []
        for cell in row:
            try:
                nums.append(float(cell))
            except ValueError:
                text.append(cell)
        labels.append(",".join(text))
        values.append(nums)
    return np.array(labels), np.array(values, dtype=float)


def sampled_rows(count: int) -> np.ndarray:
    """Rows kept in the stored reference: all of a short table, else every 10th and the last."""
    if count <= 200:
        return np.arange(count)
    return np.union1d(np.arange(0, count, 10), [count - 1])


def _close(got, ref) -> bool:
    """|got - ref| <= ATOL + RTOL |ref| everywhere (NaN fails)."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= ATOL + RTOL * np.abs(ref)))


def check_presets(payloads: dict) -> tuple[dict, dict]:
    ref = np.load(REFERENCE / "presets.npz")
    ok, energy_err = {}, 0.0
    for preset, text in payloads.items():
        if isinstance(text, Exception):
            ok[preset] = False
            continue
        header, rows = table_rows(text)
        keep = ref[f"{preset}_index"]
        if header != str(ref[f"{preset}_header"]) or len(rows) != int(ref[f"{preset}_rows"]):
            ok[preset] = False
            continue
        labels, values = split_cells([rows[i] for i in keep])
        stored = ref[f"{preset}_values"]
        good = np.array_equal(labels, ref[f"{preset}_labels"]) and _close(values, stored)
        if good:
            numeric = [c for c in header.split(",") if c != "model"]
            energy = [k for k, column in enumerate(numeric) if column.startswith("E_")]
            energy_err = max(energy_err, float(np.abs(values - stored)[:, energy].max()))
        if preset == "fig2" and good:
            # effective 1->1 curve: E = sin^2(|G| t) with G = -g^2 / delta
            data = np.array([[float(c) for c in row[1:]] for row in rows if row[0] == "effective"])
            closed = mb.analytic.e_one_one(-(0.1**2) / 1.0, data[:, 1])
            dev = float(np.max(np.abs(data[:, 2] - closed)))
            energy_err = max(energy_err, dev)
            good &= dev <= ANALYTIC_TOL
        ok[preset] = bool(good)
    return ok, {"energy_err": energy_err}


def sweep_reference(n_max: int) -> dict:
    """Stored sweep-uniform rows with N <= n_max, keyed by model,N,M,J."""
    text = (REFERENCE / "sweep-uniform.csv").read_text(encoding="utf-8")
    rows = {}
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        if int(cells[1]) <= n_max:
            rows[",".join(cells[:4])] = line
    return rows


def check_sweep(payloads: dict, n_max: int) -> tuple[dict, dict]:
    ref = sweep_reference(n_max)
    ok, energy_err = {}, 0.0
    for key, row in payloads.items():
        if isinstance(row, Exception):
            ok[key] = False
            continue
        got = [float(c) for c in row.split(",")[1:]]
        want = [float(c) for c in ref[key].split(",")[1:]]
        ok[key] = _close(got, want)
        energy_err = max(energy_err, abs(got[3] - want[3]))
    return ok, {"energy_err": energy_err}


def kron_hamiltonian(omega, omega_m, g, exchange, cutoff):
    """Spins plus one mode, built from Kronecker products on the full space.

    H = omega sum_s n_s + omega_m a^dag a + sum_s g_s (s+_s a + s-_s a^dag)
        + sum_{s<t} K_st (s+_s s-_t + s-_s s+_t)

    Returns the sparse matrix, the spin bits of every product state (spin
    0 most significant) and its magnon number.
    """
    spins = len(g)
    levels = cutoff + 1
    index = np.arange(2**spins * levels)
    magnon = index % levels
    bits = ((index // levels)[:, None] >> (spins - 1 - np.arange(spins))) & 1
    raise_spin = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
    lower_spin = raise_spin.T
    lower_mode = sp.diags(np.sqrt(np.arange(1.0, levels)), 1, shape=(levels, levels))

    def chain(factors):
        out = sp.identity(1, format="csr")
        for factor in factors:
            out = sp.kron(out, factor, format="csr")
        return out

    def eye(size):
        return sp.identity(size, format="csr")

    h = sp.diags((omega * bits.sum(axis=1) + omega_m * magnon).astype(float)).tocsr()
    if levels > 1:
        for s in range(spins):
            term = g[s] * chain([eye(2**s), raise_spin, eye(2 ** (spins - s - 1)), lower_mode])
            h = h + term + term.T
    for s in range(spins):
        for t in range(s + 1, spins):
            if exchange[s, t] != 0.0:
                term = exchange[s, t] * chain(
                    [eye(2**s), raise_spin, eye(2 ** (t - s - 1)), lower_spin,
                     eye(2 ** (spins - t - 1)), eye(levels)]
                )
                h = h + term + term.T
    return h.tocsr(), bits, magnon


def _sector(h, bits, magnon, n_exc):
    keep = np.flatnonzero(bits.sum(axis=1) + magnon == n_exc)
    return h[keep][:, keep], bits[keep], magnon[keep]


def _couplings(disorder: Disorder, effective: bool):
    """Spin-mode couplings and the flip-flop matrix over all N+M spins.

    The effective model adds the induced G = g g' / (omega - omega_m) to
    every pair, on top of the direct exchange J within each register.
    """
    n = len(disorder.g_charger)
    g = np.concatenate([disorder.g_charger, disorder.g_battery])
    exchange = np.outer(g, g) / (OMEGA - OMEGA_M) if effective else np.zeros((len(g), len(g)))
    exchange[:n, :n] += disorder.j_charger
    exchange[n:, n:] += disorder.j_battery
    np.fill_diagonal(exchange, 0.0)
    return g, exchange


def _full_sector(disorder: Disorder):
    """Sector of the fully charged state (cutoff = N), Kronecker-built."""
    n = len(disorder.g_charger)
    g, exchange = _couplings(disorder, effective=False)
    return _sector(*kron_hamiltonian(OMEGA, OMEGA_M, g, exchange, n), n)


def _effective_sector(disorder: Disorder):
    """Mode-eliminated sector of the fully charged state, Kronecker-built."""
    n = len(disorder.g_charger)
    g, exchange = _couplings(disorder, effective=True)
    return _sector(*kron_hamiltonian(0.0, 0.0, np.zeros(len(g)), exchange, 0), n)


def check_trajectory(payloads, disorder: Disorder, horizon: float, samples: int):
    text = payloads["trajectory"]
    if isinstance(text, Exception):
        return {"trajectory": False}, {}
    data = csv_body(text)
    times, energy, norm = data[:, 0], data[:, 1], data[:, 3]
    n = len(disorder.g_charger)
    grid_ok = times.shape == (samples,) and np.allclose(
        times, np.linspace(0.0, horizon, samples), rtol=1e-12, atol=0.0
    )
    h, bits, magnon = _full_sector(disorder)
    w, v = np.linalg.eigh(h.toarray())
    start = np.flatnonzero(bits[:, :n].all(axis=1) & (magnon == 0))[0]
    phases = np.exp(-1j * np.outer(times, w)) * v[start]
    amps = phases.real @ v.T + 1j * (phases.imag @ v.T)
    reference = (np.abs(amps) ** 2) @ bits[:, n:].sum(axis=1)
    energy_err = float(np.max(np.abs(energy - reference)))
    norm_err = float(np.max(np.abs(norm - 1.0)))
    ok = bool(grid_ok and energy_err <= ENERGY_TOL and norm_err <= NORM_TOL)
    return {"trajectory": ok}, {"energy_err": energy_err, "norm_err": norm_err}


def _pattern_digest(h) -> tuple[str, str]:
    """Checksums of the label order and of the (row, col) pairs in sorted order."""
    labels = np.array(h.basis.labels, dtype=np.int64)
    coo = h.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    rows, cols = coo.row[order].astype(np.int64), coo.col[order].astype(np.int64)
    return sha256(labels), sha256(rows, cols)


def structure_digests(payloads: dict) -> dict:
    """Label-order and (row, col)-pattern checksums of the built matrices."""
    out = {}
    for key in ("full", "effective"):
        out[f"{key}_labels"], out[f"{key}_pattern"] = _pattern_digest(payloads[key])
    return out


def _derived_values(h, n: int, coupling: np.ndarray, exchange: np.ndarray, diagonal):
    """Value of every stored entry derived from the two labels it connects.

    coupling[s] is the spin-mode coupling of spin s, exchange[s, t] the
    flip-flop amplitude; diagonal(labels) gives the diagonal.  Entries that
    no term can produce derive to NaN.
    """
    coo = h.matrix.tocoo()
    labels = np.array(h.basis.labels, dtype=np.int8)
    spin_cols = np.r_[0:n, n + 1 : labels.shape[1]]
    row_l, col_l = labels[coo.row], labels[coo.col]
    d_spin = row_l[:, spin_cols] - col_l[:, spin_cols]
    d_mode = row_l[:, n].astype(np.int64) - col_l[:, n]
    changed = (d_spin != 0).sum(axis=1)
    first = np.argmax(d_spin != 0, axis=1)
    last = d_spin.shape[1] - 1 - np.argmax((d_spin != 0)[:, ::-1], axis=1)
    out = np.full(coo.nnz, np.nan)
    diag = coo.row == coo.col
    out[diag] = diagonal(col_l[diag])
    hop = (changed == 1) & (np.abs(d_mode) == 1) & (d_spin.sum(axis=1) == -d_mode)
    magnons = np.maximum(row_l[hop, n], col_l[hop, n]).astype(float)
    out[hop] = coupling[first[hop]] * np.sqrt(magnons)
    swap = (changed == 2) & (d_mode == 0) & (d_spin.sum(axis=1) == 0)
    out[swap] = exchange[first[swap], last[swap]]
    return coo, out, swap & (first >= n)


def _values_ok(coo, derived) -> bool:
    if coo.data.dtype.kind == "c" and np.any(coo.data.imag != 0.0):
        return False
    got = coo.data.real
    scale = VALUE_RTOL * np.maximum(1.0, np.abs(derived))
    return bool(np.all(np.abs(got - derived) <= scale))


def check_build(payloads: dict, disorder: Disorder, size: str, seed: int) -> tuple[dict, dict]:
    stored = json.loads((REFERENCE / "build.json").read_text(encoding="utf-8"))[size]
    n = len(disorder.g_charger)
    ok, info = {}, {}

    full = payloads["full"]
    if isinstance(full, Exception):
        ok["full"] = False
    else:
        g, exchange = _couplings(disorder, effective=False)

        def diagonal(lab):
            return OMEGA * (lab.sum(axis=1) - lab[:, n]) + OMEGA_M * lab[:, n]

        coo, derived, battery_swaps = _derived_values(full, n, g, exchange, diagonal)
        labels, pattern = _pattern_digest(full)
        ok["full"] = (
            labels == stored["full_labels"]
            and pattern == stored["full_pattern"]
            and _values_ok(coo, derived)
        )

    energy = payloads["battery_energy"]
    if isinstance(energy, Exception) or not ok["full"]:
        ok["battery_energy"] = False
    else:
        psi, value = energy
        amps = psi.amplitudes
        labels = np.array(full.basis.labels)
        occupation = labels[:, n + 1 :].sum(axis=1)
        reference = OMEGA * float(np.sum(np.abs(amps) ** 2 * occupation))
        r, c = coo.row[battery_swaps], coo.col[battery_swaps]
        reference += float(np.real(np.sum(np.conj(amps[r]) * coo.data[battery_swaps] * amps[c])))
        info["energy_err"] = abs(value - reference)
        ok["battery_energy"] = info["energy_err"] <= SUM_RTOL * max(1.0, abs(reference))

    effective = payloads["effective"]
    if isinstance(effective, Exception):
        ok["effective"] = False
    else:
        g, exchange = _couplings(disorder, effective=True)
        coo, derived, _ = _derived_values(
            effective, n, np.zeros(len(g)), exchange, lambda lab: np.full(len(lab), np.nan)
        )
        labels, pattern = _pattern_digest(effective)
        ok["effective"] = (
            labels == stored["effective_labels"]
            and pattern == stored["effective_pattern"]
            and _values_ok(coo, derived)
        )

    ok.update(check_small_spectra(seed))
    return ok, info


def check_small_spectra(seed: int, n: int = 3, m: int = 3) -> dict:
    """Sorted sector spectra of the package's builders against Kronecker products."""
    disorder = Disorder.draw(seed, n, m)
    config = disorder.config()
    out = {}
    basis = mb.enumerate_sector_basis(n, m, n, n)
    pairs = {
        f"spectrum-full-{n}+{m}": (mb.build_full_hamiltonian(config, basis), _full_sector(disorder)),
        f"spectrum-effective-{n}+{m}": (
            mb.build_effective_hamiltonian(config),
            _effective_sector(disorder),
        ),
    }
    for key, (h, (reference, _, _)) in pairs.items():
        got = np.linalg.eigvalsh(h.toarray())
        want = np.linalg.eigvalsh(reference.toarray())
        scale = SUM_RTOL * max(1.0, float(np.abs(want).max()))
        out[key] = got.shape == want.shape and bool(np.all(np.abs(got - want) <= scale))
    return out

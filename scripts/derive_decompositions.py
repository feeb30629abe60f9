#!/usr/bin/env python3
"""Derive and store the rank-7 decompositions shipped in the packaged catalog.

Two routes feed the catalog, both gated by exact rational re-verification:

* search: float alternating least squares from a unit-tensor source
  (`heuristic_restriction_search` of `restriction_search.py`, beside this
  script), rational polishing of converged runs, and a simulated-annealing
  sweep over half-integer factor entries. The shipped Kronecker-square
  decomposition of the W state was found by the annealing stage; reruns
  with the default seeds reproduce it.

* classical table: the seven bilinear products for the 2x2 matrix product
  (Strassen 1969) written down as factor vectors. The float searches here
  converge readily but rarely land on rational points for this tensor, so
  the catalog ships the classical construction, exactly verified like
  everything else.
"""

import argparse
import sys

import numpy as np

from tpl.catalog import Catalog, CatalogEntry, decomposition_tensor, verify_entry
from tpl.named import ghz, mamu, w_state
from tpl.preorder import verify_restriction
from tpl.scalars import QC
from tpl.tensor import kron
from fractions import Fraction

from restriction_search import heuristic_restriction_search, polish_rational_certificate


def gauge_normalize(maps):
    a, b, c = (m.copy() for m in maps)
    for r in range(a.shape[1]):
        for m_scale in (a, b):
            s = m_scale[:, r][np.argmax(np.abs(m_scale[:, r]))]
            if abs(s) > 1e-9:
                m_scale[:, r] /= s
                c[:, r] *= s
    return [a, b, c]


def als_attempt(target, rank_terms, seeds, iterations=3000):
    source = ghz(rank_terms)
    for seed in seeds:
        maps, residual = heuristic_restriction_search(
            source, target, iterations=iterations, tol=1e-26, restarts=1, seed=seed
        )
        if residual > 1e-18:
            continue
        arrays = gauge_normalize(maps)
        cert = polish_rational_certificate(source, target, arrays)
        if cert is None:
            print(f"  als seed {seed}: converged but did not rationalize")
            continue
        assert verify_restriction(source, target, cert)
        print(f"  als seed {seed}: exact rational decomposition")
        return _cert_to_terms(cert, rank_terms)
    return None


def _cert_to_terms(cert, rank_terms):
    terms = []
    for r in range(rank_terms):
        terms.append([[m.get(i, r) for i in range(m.rows)] for m in cert.maps])
    return terms


def anneal_once(t_np, rank_terms, rng, values, sweeps, t_hot=1.2, t_cold=0.01):
    dims = t_np.shape
    factors = [rng.choice(values, size=(dims[j], rank_terms)) for j in range(3)]
    residual = t_np - np.einsum("ir,jr,kr->ijk", *factors)
    loss = float((residual**2).sum())
    n_values = len(values)
    for step in range(sweeps):
        if loss <= 1e-12:
            return factors, 0.0
        temp = t_hot * (t_cold / t_hot) ** (step / sweeps)
        j = rng.integers(3)
        i = rng.integers(dims[j])
        r = rng.integers(rank_terms)
        old = factors[j][i, r]
        new = values[rng.integers(n_values)]
        if new == old:
            continue
        others = [factors[k] for k in range(3) if k != j]
        outer = np.multiply.outer(others[0][:, r], others[1][:, r])
        slicer = [slice(None)] * 3
        slicer[j] = i
        res_slice = residual[tuple(slicer)]
        delta = new - old
        d_loss = float(
            -2 * delta * (res_slice * outer).sum() + delta * delta * (outer**2).sum()
        )
        if d_loss <= 0 or rng.random() < np.exp(-d_loss / max(temp, 1e-9)):
            factors[j][i, r] = new
            residual[tuple(slicer)] = res_slice - delta * outer
            loss += d_loss
    return factors, loss


def anneal_search(target, rank_terms, base_seed=0, restarts=400, sweeps=60000):
    """Half-integer simulated annealing; exact check on a zero-loss hit."""
    t_np = target.to_numpy().real
    values = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    for restart in range(restarts):
        rng = np.random.default_rng(base_seed + restart)
        factors, loss = anneal_once(t_np, rank_terms, rng, values, sweeps)
        if loss == 0.0:
            terms = []
            for r in range(rank_terms):
                term = []
                for j in range(3):
                    term.append(
                        [
                            QC(Fraction(factors[j][i, r]).limit_denominator(2))
                            for i in range(t_np.shape[j])
                        ]
                    )
                terms.append(term)
            if decomposition_tensor(target.dims, terms) == target:
                print(f"  anneal restart {restart}: exact half-integer decomposition")
                return terms
    return None


def classical_mamu2_terms():
    """The seven products of the classical 2x2 algorithm as factor vectors.

    Third-factor vectors are packed transposed relative to the product
    coefficients because the tensor's last factor carries (i3, i1).
    """

    def basis(i, j):
        m = [[0, 0], [0, 0]]
        m[i][j] = 1
        return m

    def combo(*spots):
        m = [[0, 0], [0, 0]]
        for (i, j), coeff in spots:
            m[i][j] += coeff
        return m

    a_side = [
        combo(((0, 0), 1), ((1, 1), 1)),
        combo(((1, 0), 1), ((1, 1), 1)),
        combo(((0, 0), 1)),
        combo(((1, 1), 1)),
        combo(((0, 0), 1), ((0, 1), 1)),
        combo(((1, 0), 1), ((0, 0), -1)),
        combo(((0, 1), 1), ((1, 1), -1)),
    ]
    b_side = [
        combo(((0, 0), 1), ((1, 1), 1)),
        combo(((0, 0), 1)),
        combo(((0, 1), 1), ((1, 1), -1)),
        combo(((1, 0), 1), ((0, 0), -1)),
        combo(((1, 1), 1)),
        combo(((0, 0), 1), ((0, 1), 1)),
        combo(((1, 0), 1), ((1, 1), 1)),
    ]
    c_side = [
        combo(((0, 0), 1), ((1, 1), 1)),
        combo(((1, 0), 1), ((1, 1), -1)),
        combo(((0, 1), 1), ((1, 1), 1)),
        combo(((0, 0), 1), ((1, 0), 1)),
        combo(((0, 0), -1), ((0, 1), 1)),
        combo(((1, 1), 1)),
        combo(((0, 0), 1)),
    ]
    terms = []
    for r in range(7):
        u = [QC(a_side[r][i][j]) for i in range(2) for j in range(2)]
        v = [QC(b_side[r][i][j]) for i in range(2) for j in range(2)]
        w = [QC(c_side[r][j][i]) for i in range(2) for j in range(2)]
        terms.append([u, v, w])
    return terms


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--catalog", default="src/tpl/data/catalog")
    parser.add_argument("--als-seeds", type=int, default=12)
    parser.add_argument("--anneal-restarts", type=int, default=400)
    args = parser.parse_args()
    catalog = Catalog(args.catalog)

    print("deriving w-kron2-rank7 ...")
    wkw = kron(w_state(), w_state())
    terms = als_attempt(wkw, 7, range(args.als_seeds))
    if terms is None:
        terms = anneal_search(wkw, 7, base_seed=0, restarts=args.anneal_restarts)
    if terms is None:
        print("  FAILED")
        return 1
    entry = CatalogEntry(
        id="w-kron2-rank7",
        tensor=wkw,
        decomposition=terms,
        metadata={
            "rank_upper_bound": 7,
            "provenance": "derived by the in-repo annealing search over half-integer "
            "factors and verified exactly; the value 7 is classical "
            "(Yu, Chitambar, Duan, Ying 2010)",
        },
    )
    verify_entry(entry)
    catalog.put(entry)
    print("  stored w-kron2-rank7")

    print("deriving strassen-mamu2-rank7 ...")
    tensor = mamu(2)
    terms = als_attempt(tensor, 7, range(args.als_seeds))
    provenance = (
        "derived by the in-repo ALS search with rational polishing and verified exactly"
    )
    if terms is None:
        terms = classical_mamu2_terms()
        provenance = (
            "classical seven-product construction (Strassen 1969) entered as data "
            "and verified exactly; float searches converge numerically but rarely "
            "rationalize for this tensor"
        )
    entry = CatalogEntry(
        id="strassen-mamu2-rank7",
        tensor=tensor,
        decomposition=terms,
        metadata={"rank_upper_bound": 7, "provenance": provenance},
    )
    verify_entry(entry)
    catalog.put(entry)
    print("  stored strassen-mamu2-rank7")
    return 0


if __name__ == "__main__":
    sys.exit(main())

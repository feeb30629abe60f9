"""Golden digests of the certificates and bound reports that the exact core produces.

Each digest is a sha256 over the canonical JSON (sorted keys, compact
separators, one line per object) of a fixed list of certificates or
reports. Any change to an interpolated or lattice certificate, down to one
coefficient, changes the digest. The certificate values were recorded with
the scalar-loop contraction that the integer lane replaced; the report
value with the per-id catalog scan of ``disjoint_rank_bounds`` that
``Catalog.load_all`` replaced.
"""

import hashlib
import json
import random

import pytest
import util
from test_acceptance import _random_degeneration, w_border_cert

from tpl.asymptotic import disjoint_rank_bounds, lattice_construction, strassen_rank_bounds
from tpl.catalog import Catalog
from tpl.jsonio import certificate_to_json
from tpl.named import ghz, mamu, w_state
from tpl.preorder import interpolate
from tpl.tensor import kron


def json_digest(objs):
    h = hashlib.sha256()
    for obj in objs:
        line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def certificate_digest(certs):
    return json_digest(certificate_to_json(cert) for cert in certs)


LATTICE_DIGESTS = {
    "Triangular": "6a852a843d153a02dc3511846495cfe4009365ad57eeb457c8cf05fa221e711d",
    "Kagome": "8da33d0967519c9364260e7a1839a4d86a9c71dfd41f2d78cfd690f39739c362",
}
INTERPOLATION_DIGEST = "7996068794f3d20ce96b4d1cf0b71127900f29604942e34ae23a38a7e12b71da"


@pytest.mark.parametrize("family", sorted(LATTICE_DIGESTS))
def test_lattice_certificates_match_golden_digest(family):
    certs = [
        lattice_construction(ghz(2), w_state(), w_border_cert(), family, n)
        for n in range(1, 5)
    ]
    assert certificate_digest(certs) == LATTICE_DIGESTS[family]


def test_criterion_3_certificates_match_golden_digest():
    # The same 200 cases, from the same seed, as criterion 3.
    rng = random.Random(20260103)
    certs = []
    for _ in range(200):
        t, target, degcert, _d, _e = _random_degeneration(rng)
        certs.append(interpolate(t, target, degcert))
    assert certificate_digest(certs) == INTERPOLATION_DIGEST


REPORT_DIGEST = "78a799a4d9f05078b9d152d6842c3f81c73c4662be2c2bd46f42ed2e42670322"


def test_bound_reports_match_golden_digest():
    rng = random.Random(20261018)
    tensors = [
        w_state(),
        ghz(3),
        mamu(2),
        kron(w_state(), w_state()),
        util.random_rational_tensor(rng, (3, 3, 3)),
        util.random_rational_tensor(rng, (4, 4, 4)),
    ]
    catalog = Catalog.packaged()
    reports = []
    for t in tensors:
        reports.append(disjoint_rank_bounds(t, catalog).to_json())
        reports.append(strassen_rank_bounds(t, n_max=2, catalog=catalog).to_json())
    assert json_digest(reports) == REPORT_DIGEST

"""Golden digests of the certificates that the exact kernels produce.

Each digest is a sha256 over the canonical JSON (sorted keys, compact
separators, one line per certificate) of a fixed list of certificates.
Any change to an interpolated or lattice certificate, down to one
coefficient, changes the digest. The values were recorded with the
scalar-loop contraction that the integer lane replaced.
"""

import hashlib
import json
import random

import pytest
from test_acceptance import _random_degeneration, w_border_cert

from tpl.asymptotic import lattice_construction
from tpl.jsonio import certificate_to_json
from tpl.named import ghz, w_state
from tpl.preorder import interpolate


def certificate_digest(certs):
    h = hashlib.sha256()
    for cert in certs:
        line = json.dumps(certificate_to_json(cert), sort_keys=True, separators=(",", ":"))
        h.update(line.encode() + b"\n")
    return h.hexdigest()


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

"""The default report's bits, pinned.

Every route value and estimate (mpf tuples, mantissa in hex), every
evaluation count and every identity residual of ``run_all`` at 50 and
100 digits, and a digest of every integrand evaluation it makes, taken
before the per-term loops moved from mpmath's wrappers onto libmp calls
at a fixed precision.  A change that keeps each operation's rounding
keeps every one of these bits.  One that rounds a single far tail or
node differently can stay below the routes' P + 10 digit values, which
the integrals reach at P + 20, but it moves the digest.
"""

from __future__ import annotations

import hashlib

import pytest

from glaisher import make_context, run_all
from glaisher.quadrature import Integrand

# route id: (value, error estimate, evaluations); identity id: residual
_REPORT_PINS = {
    50: {
        "limit": (
            (0, 0x3fae5f9797fbd68f15fe566b2043d0dab6c7e7466fb6fce52e5, -204, 202),
            (0, 0x7b8c008e2f8593c73de40442805d64182c24d2fcb6f4c290239, -272, 203),
            0,
        ),
        "pain1": (
            (0, 0x1fd72fcbcbfdeb47890f0ace2a094832b1175a37c0aa54d63b7, -203, 201),
            (0, 0x5ceb7627d1d341d96cc272dcd22915637cec7efd2bc002d5555, -337, 203),
            694,
        ),
        "pain2": (
            (0, 0xfeb97e5e5fef5a3c48785671504a419588bad1be0552dbb8fb, -202, 200),
            (0, 0x5ceb7627d1d341d96cc272dcd22915637cec7efd2bc002d5555, -337, 203),
            480,
        ),
        "feaux": (
            (0, 0x7f5cbf2f2ff7ad1e243c2b38a82520cac45d68df02a96dde18d, -205, 203),
            (0, 0x5ceb7627d1d341d96cc272dcd22915637cec7efd2bc002d5555, -336, 203),
            690,
        ),
        "kummer": (
            (0, 0x1fd72fcbcbfdeb47890f0ace2a094832b1175a37c0aa4e00799, -203, 201),
            (0, 0x5ceb7627d1d341d96cc272dcd22915637cec7efd2bc002d5555, -337, 203),
            694,
        ),
        "fourier_series": (
            (0, 0x3fae5f9797fbd68f121e159c54129065622eb46f8154b6eed97, -204, 202),
            (0, 0x2fe3f6de212697e5b7acb75fa09efe972a7b3c85894b5c2a3f, -367, 198),
            100,
        ),
        "hasse": (
            (0, 0x1fd4689573d81b46bb66772bf507710f1d8957534b971434d5, -199, 197),
            (0, 0x6053aee61a60954ae931b1f331a58b288e3295d6cb4beb8f673, -216, 203),
            3321,
        ),
        "glaisher_half": (1, 0x72991b43b53b9555, -240, 63),
        "gla2": (1, 0x98cc249, -205, 28),
        "log_sin": (0, 0x303952d414a43ffcf1, -237, 70),
        "res2_measure_check": (0, 0x210ec23a741972b741225d8d0ffdadf353ba29720fd5692224d, -201, 202),
    },
    100: {
        "limit": (
            (0, int("1fd72fcbcbfdeb478aff2b359021e86d5b63f3a337db7dff66db55ac2eb2e98e"
                "27f7ad444b5b94babbfd3a93c24d7", 16), -371, 369),
            (0, int("f718011c5f0b278e7bc80884f4c4f8f9b6d0f8b51a4b3e27cf9b999ca293cd9c"
                "31245082083cd5195911e4e608b7", 16), -437, 368),
            0,
        ),
        "pain1": (
            (0, int("7f5cbf2f2ff7ad1e243c2b38a82520cac45d68df02a96dddb2f2860df09ba42d"
                "9ec6c5956fed045f57c9ae5dfe7", 16), -365, 363),
            (0, int("15ba775b76bde95d4278aabbc20206cc212a60754d625f3d4bce97d083af5b10"
                "38916c35ffc5f6f8edf441c3", 16), -649, 349),
            1515,
        ),
        "pain2": (
            (0, int("1fd72fcbcbfdeb47890f0ace2a094832b1175a37c0aa5b776cbca1837c26e90b"
                "67b1b1655bfb411844bdd9f2377a3", 16), -371, 369),
            (0, int("15ba775b76bde95d4278aabbc20206cc212a60754d625f3d4bce97d083af5b10"
                "38916c35ffc5f6f8edf441c3", 16), -649, 349),
            1025,
        ),
        "feaux": (
            (0, int("3fae5f9797fbd68f121e159c54129065622eb46f8154b6eed9794306f84dd216"
                "cf6362cab7f68230897bb4232ab1", 16), -368, 366),
            (0, int("15ba775b76bde95d4278aabbc20206cc212a60754d625f3d4bce97d083af5b10"
                "38916c35ffc5f6f8edf441c3", 16), -648, 349),
            1511,
        ),
        "kummer": (
            (0, int("feb97e5e5fef5a3c48785671504a419588bad1be0552dbbb65e50c1be137485b"
                "3d8d8b2adfda08bb55e48557147b", 16), -370, 368),
            (0, int("15ba775b76bde95d4278aabbc20206cc212a60754d625f3d4bce97d083af5b10"
                "38916c35ffc5f6f8edf441c3", 16), -649, 349),
            1516,
        ),
        "fourier_series": (
            (0, int("1fd72fcbcbfdeb47890f0ace2a094832b1175a37c0aa5b776cbca1837c26e90b"
                "67b1b1655bfb411844bdda0a74f9f", 16), -371, 369),
            (0, int("1665bf1d3e6a8cac8b35977dc931439315f67a0d75793af4edf4f690bfea9566"
                "9c9477336fe7929e47f71101e5bb9", 16), -704, 369),
            100,
        ),
        # The value was pinned again when the Hasse partial sums moved to
        # exact integers rounded once, 1 ulp from the libmp-summed bits.
        "hasse": (
            (0, int("3fa8d12ae7b0368d76ccee57ea0ee283261fedf055e2410f98d28e9825e8cdf4"
                "65b472d7e506dda1b6a7a1a0f2fb", 16), -368, 366),
            (0, int("c0a75dcc34c12a95d26363e66469b601c808435d308dcec75a5f3431ba28cbcc"
                "fa1cba610bdc54dab67b8de2a979", 16), -381, 368),
            3321,
        ),
        "glaisher_half": (0, 0x5c1d6ca0c7cd, -404, 47),
        "gla2": (0, 0xf5b, -370, 12),
        "log_sin": (1, 0x1c15ad0db821b1b5b99, -398, 73),
        "res2_measure_check": (0, int("421d8474e832e56e8244bb1a1ffb5be6a77452e41faad24449a1af3e41ec8b7a"
            "4c27274d52025f73dda112fac583", 16), -366, 367),
    },
}


@pytest.mark.parametrize("digits", sorted(_REPORT_PINS))
def test_run_all_bits_pinned(digits):
    doc = run_all(make_context(digits))
    assert not doc.failures
    got = {e.route_id: (e.value._mpf_, e.error_estimate._mpf_, e.evaluations)
           for e in doc.estimates}
    got.update((r.identity_id, r.residual._mpf_) for r in doc.residuals)
    pins = _REPORT_PINS[digits]
    assert list(got) == list(pins)
    for name, pinned in pins.items():
        assert got[name] == pinned, f"{name} at {digits} digits"


# sha256 over (label, abscissa, value) of each integrand call, in order.
_EVALUATION_DIGESTS = {
    50: "5717004fbd0a1f246471a37a138bd013db52fbd6430e808ea54dc170bc33aca2",
    100: "e9195ab6913e45843dd96c374e56b4db0ba9c5b6673b7ead4938802df3ba39c6",
}


@pytest.mark.parametrize("digits", sorted(_EVALUATION_DIGESTS))
def test_run_all_evaluations_pinned(digits, monkeypatch):
    digest = hashlib.sha256()
    call = Integrand.__call__

    def recorded(self, t):
        v = call(self, t)
        digest.update(repr((self.label, t._mpf_, getattr(v, "_mpf_", v))).encode())
        return v

    monkeypatch.setattr(Integrand, "__call__", recorded)
    run_all(make_context(digits))
    assert digest.hexdigest() == _EVALUATION_DIGESTS[digits]

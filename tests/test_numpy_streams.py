"""Canaries for the numpy streams that every output byte follows.

Walks and episodes draw from ``np.random.default_rng(seed)``'s
``standard_normal`` and ``uniform``, and numpy's ``Generator`` makes no
promise that these streams stay the same across releases (NEP 19).  The
autocorrelogram runs numpy's pocketfft ``rfft2`` and ``irfft2``.  Each
test pins the SHA-256 of one stream's little-endian bytes, so a numpy
release that moves a stream fails here, by name, rather than only as
digest mismatches across the golden files.
"""

import hashlib
import math

import numpy as np
import pytest

# (seed, SHA-256 of standard_normal(4096), SHA-256 of uniform(-pi, pi, 4096))
GENERATOR_DIGESTS = (
    (
        0,
        "0aa947cff2e6ca729d80e01c3fdaa3944c384c31d8730941131a86999933ee2c",
        "3e217c2555ee15c087f80180925446bd93b4c2f31611b06d2b608a87ff6c83a1",
    ),
    (
        1,
        "699597ea57c2fae253cad08f6821167f37de6449abfc1f4a57f7e21aad0959bc",
        "789738abd093289175d697ebb19310b7ba7f2a4203a29827f2c86c12a5099168",
    ),
    (
        7,
        "50ba75a1b3193fe6f9d5ba29f4ff848b0085ac9269361a3de7114b26d010bc7c",
        "845a109203cb6b06bb7b6ff4ffc5cb89077b8b5a60627025026c9cbc0d8081db",
    ),
)

# (map side, padded shape, SHA-256 of rfft2, SHA-256 of irfft2 of that
# spectrum): the padded shapes of 52 x 52 and 104 x 104 autocorrelograms
FFT_DIGESTS = (
    (
        52,
        (108, 108),
        "98521a249e9cfa5b7b3e2dbbb7334fd26ab47feda0e87013ad26f5ba2bf18d6d",
        "6eb2348cdb2dab6ec82a8549c35a209a6515a249e8e299f4f091e5e96a237c5d",
    ),
    (
        104,
        (216, 216),
        "8f8dc4e261924df7d57cb7ee2bab019a4284d86a8808040100e0633f6fbcccac",
        "3c00ad6c06025e4dbc08c995bef7d043d7e02dfbcca0018ad9a0141c06a6462c",
    ),
)


def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()).hexdigest()


def _fixed_map(side: int) -> np.ndarray:
    """A side x side map from integer arithmetic and a power-of-two
    scale, so that no random draw and no libm call enters the input."""
    i, j = np.ogrid[0:side, 0:side]
    return ((i * 37 + j * 11) % 64 - 31.5) / 32.0


@pytest.mark.parametrize("seed, normal_digest, uniform_digest", GENERATOR_DIGESTS)
def test_generator_streams_are_pinned(seed, normal_digest, uniform_digest):
    got = _sha256(np.random.default_rng(seed).standard_normal(4096))
    assert got == normal_digest, (
        f"numpy Generator.standard_normal stream moved at seed {seed}: every walk "
        f"and episode byte follows it (numpy {np.__version__})"
    )
    got = _sha256(np.random.default_rng(seed).uniform(-math.pi, math.pi, 4096))
    assert got == uniform_digest, (
        f"numpy Generator.uniform stream moved at seed {seed}: every walk and "
        f"episode byte follows it (numpy {np.__version__})"
    )


@pytest.mark.parametrize("side, shape, rfft_digest, irfft_digest", FFT_DIGESTS)
def test_pocketfft_streams_are_pinned(side, shape, rfft_digest, irfft_digest):
    spectrum = np.fft.rfft2(_fixed_map(side), s=shape)
    assert _sha256(spectrum) == rfft_digest, (
        f"numpy pocketfft rfft2 output moved at padded shape {shape}: the "
        f"autocorrelogram bytes follow it (numpy {np.__version__})"
    )
    assert _sha256(np.fft.irfft2(spectrum, s=shape)) == irfft_digest, (
        f"numpy pocketfft irfft2 output moved at padded shape {shape}: the "
        f"autocorrelogram bytes follow it (numpy {np.__version__})"
    )

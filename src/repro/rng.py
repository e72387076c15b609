"""Deterministic random-number streams.

Every stochastic element of the simulation (measurement noise, unmodeled
per-benchmark power effects, counter observation error) draws from a
:class:`numpy.random.Generator` seeded from a stable hash of the
experimental coordinates (GPU, benchmark, input size, operating point,
stream label).  Two properties follow:

* the whole reproduction is bit-reproducible run to run, and
* changing one coordinate (e.g. the memory frequency) re-randomizes only
  the streams that depend on it, as on real hardware where re-running the
  same configuration re-samples the same physical noise distribution.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

import numpy as np

#: Global experiment seed.  Changing it re-rolls every noise stream while
#: keeping the simulation physics fixed.
GLOBAL_SEED = 20140519  # IPDPS 2014 conference date


def stable_hash(*coords: Any) -> int:
    """Return a 64-bit integer hash of the given coordinates.

    Unlike built-in ``hash``, the result is stable across processes and
    Python versions (``PYTHONHASHSEED`` does not affect it).
    """
    text = "\x1f".join(repr(c) for c in coords)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stable_hashes(coords_list: "Iterable[tuple]") -> list[int]:
    """``[stable_hash(*c) for c in coords_list]``, with fewer ``repr`` calls.

    Coordinate lists repeat a few names (labels, cards, benchmarks,
    pairs) many times, so each distinct ``str`` is ``repr``-ed once.
    Only exact ``str`` instances share the memo: equal keys of other
    types (``1``, ``1.0``, ``True``; ``0.0``, ``-0.0``) and ``str``
    subclasses may ``repr`` differently.
    """
    reprs: dict[str, str] = {}
    out = []
    for coords in coords_list:
        parts = []
        for c in coords:
            if type(c) is str:
                text = reprs.get(c)
                if text is None:
                    text = reprs[c] = repr(c)
            else:
                text = repr(c)
            parts.append(text)
        digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
        out.append(int.from_bytes(digest[:8], "little"))
    return out


def prefix_hashes(prefix: tuple, tails: "Iterable[bytes]") -> list[int]:
    """``[stable_hash(*prefix, t) for t in ...]``, hashing ``prefix`` once.

    ``tails`` holds each last coordinate's ``repr``, UTF-8 encoded.  The
    prefix's text is hashed once and each tail hashes from a ``copy()``
    of that state, which leaves every digest unchanged.
    """
    head = hashlib.sha256("".join(repr(c) + "\x1f" for c in prefix).encode("utf-8"))
    out = []
    for tail in tails:
        h = head.copy()
        h.update(tail)
        out.append(int.from_bytes(h.digest()[:8], "little"))
    return out


def stream(*coords: Any, seed: int | None = None) -> np.random.Generator:
    """Create a deterministic generator for the given coordinates.

    Parameters
    ----------
    coords:
        Arbitrary hashable-by-repr coordinates identifying the stream,
        e.g. ``("power-noise", gpu.name, kernel.name, size, op.key)``.
    seed:
        Override for :data:`GLOBAL_SEED`, mainly for tests.
    """
    base = GLOBAL_SEED if seed is None else seed
    return np.random.default_rng(np.random.SeedSequence([base, stable_hash(*coords)]))


# ----------------------------------------------------------------------
# vectorized stream seeding (the batch hot path)
#
# ``stream()`` costs about 20us per call, almost all of it inside
# ``SeedSequence`` entropy mixing and PCG64 construction.  The batch
# evaluation path needs thousands of streams per grid, and almost every
# stream is drawn from exactly once, so this section reimplements
# seeding and that first draw with bit-identical results:
#
# * :func:`seed_state_words` runs the SeedSequence entropy-mixing
#   algorithm (numpy's C implementation, constants and all) over a whole
#   column of stream hashes at once,
# * :func:`first_draws` steps each seeded PCG64 once and turns the output
#   into the value ``normal()`` and ``uniform()`` would return, and
# * :class:`StreamBank` hands a grid those columns, writing a PCG64
#   state only for the draws they cannot answer.
#
# Parity with ``stream()`` is asserted by tests/test_batch_parity.py and
# tests/test_rng.py.
# ----------------------------------------------------------------------

#: SeedSequence mixing constants (numpy _sfc64/_pcg seed hasher).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

#: PCG64 LCG multiplier and 128-bit mask for direct state construction.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1

#: Below this many streams the per-array numpy overhead beats the
#: reference path; fall back to plain SeedSequence.
_VECTOR_MIN = 8


def _hashmix(values: np.ndarray, hc: list[int]) -> np.ndarray:
    """Vectorized SeedSequence ``hashmix``; ``hc`` is the stateful scalar.

    The hash constant stays a masked python int: numpy 2.x raises on
    out-of-range *scalar* conversions, while uint32 *array* arithmetic
    wraps silently — exactly the C semantics being reproduced.
    """
    values = values ^ np.uint32(hc[0])
    hc[0] = (hc[0] * _MULT_A) & _MASK32
    values = values * np.uint32(hc[0])
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized SeedSequence inter-pool ``mix``."""
    r = (x * _MIX_MULT_L) - (y * _MIX_MULT_R)
    return r ^ (r >> _XSHIFT)


def _mixed_seed_words(entropy: list[np.ndarray]) -> np.ndarray:
    """Entropy-mix ``k`` uint32 columns into ``(n, 4)`` uint64 seed words.

    Lane ``i`` of the result equals
    ``SeedSequence(<lane-i entropy words>).generate_state(4, uint64)``.
    """
    n = entropy[0].shape[0]
    k = len(entropy)
    hc = [_INIT_A]
    pool = []
    for i in range(4):
        src = entropy[i] if i < k else np.zeros(n, dtype=np.uint32)
        pool.append(_hashmix(src, hc))
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], hc))
    hc = [_INIT_B]
    words32 = []
    for i_dst in range(8):
        data = pool[i_dst % 4] ^ np.uint32(hc[0])
        hc[0] = (hc[0] * _MULT_B) & _MASK32
        data = data * np.uint32(hc[0])
        words32.append(data ^ (data >> _XSHIFT))
    out = np.empty((n, 4), dtype=np.uint64)
    for j in range(4):
        lo = words32[2 * j].astype(np.uint64)
        hi = words32[2 * j + 1].astype(np.uint64)
        out[:, j] = lo | (hi << np.uint64(32))
    return out


def seed_state_words(base: int, hashes: "list[int] | np.ndarray") -> np.ndarray:
    """PCG64 seed words for ``SeedSequence([base, h])``, one row per hash.

    Vectorizes the common entropy layout — ``base`` fitting one 32-bit
    word and ``h`` filling two — and falls back to the reference
    SeedSequence for the rare lanes (h < 2**32, probability 2**-32 per
    stream) and for small batches where numpy overhead loses.
    """
    hashes = np.asarray(hashes, dtype=np.uint64)
    n = hashes.shape[0]
    out = np.empty((n, 4), dtype=np.uint64)
    vectorizable = 0 <= base < (1 << 32) and n >= _VECTOR_MIN
    big = (
        hashes >= np.uint64(1 << 32)
        if vectorizable
        else np.zeros(n, dtype=bool)
    )
    idx = np.nonzero(big)[0]
    if idx.size:
        e0 = np.full(idx.size, base, dtype=np.uint32)
        e1 = (hashes[idx] & np.uint64(_MASK32)).astype(np.uint32)
        e2 = (hashes[idx] >> np.uint64(32)).astype(np.uint32)
        out[idx] = _mixed_seed_words([e0, e1, e2])
    for i in np.nonzero(~big)[0]:
        ss = np.random.SeedSequence([base, int(hashes[i])])
        out[i] = ss.generate_state(4, dtype=np.uint64)
    return out


# ----------------------------------------------------------------------
# first draws (numpy's PCG64 step and ziggurat, one column at a time)
# ----------------------------------------------------------------------

#: numpy's ziggurat tables for ``standard_normal`` (``wi_double`` and
#: ``ki_double`` in numpy/random/src/distributions/ziggurat_constants.h).
#: numpy does not expose them; tests/test_rng.py re-derives both by
#: probing numpy's generator and asserts they equal these literals.
_ZIGGURAT_WI = np.array([
    8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17,
    7.454870481247696e-17, 8.3293668157931e-17, 9.068060405059482e-17,
    9.714860076567762e-17, 1.0294750314241019e-16, 1.0823430288447684e-16,
    1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16,
    1.3697864842571203e-16, 1.4034823001242382e-16, 1.4359529452056943e-16,
    1.4673208742364422e-16, 1.4976904668391037e-16, 1.5271515003596198e-16,
    1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16,
    1.713417017655966e-16, 1.737754436586486e-16, 1.7616331923000996e-16,
    1.7850812316976727e-16, 1.8081240285799152e-16, 1.830784876482675e-16,
    1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16,
    1.9803160683128174e-16, 2.000566877627333e-16, 2.0205791562071654e-16,
    2.0403638415480212e-16, 2.0599311887403706e-16, 2.079290829041402e-16,
    2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16,
    2.2096924282235318e-16, 2.2276773304789553e-16, 2.2455202529414355e-16,
    2.263226755928568e-16, 2.280802138345017e-16, 2.2982514554424684e-16,
    2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16,
    2.4172472704675025e-16, 2.433845631371103e-16, 2.4503547622614954e-16,
    2.466777995232705e-16, 2.4831185421610877e-16, 2.4993795016204524e-16,
    2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16,
    2.6112170470670194e-16, 2.6269412038597256e-16, 2.6426094988411895e-16,
    2.658224191608307e-16, 2.6737874806323633e-16, 2.689301506472616e-16,
    2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16,
    2.79668929362423e-16, 2.8118802553450207e-16, 2.827039064324479e-16,
    2.842167425218406e-16, 2.8572670107546015e-16, 2.87233946347098e-16,
    2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16,
    2.977219284209029e-16, 2.992130701386013e-16, 3.007028663321331e-16,
    3.0219145919680615e-16, 3.036789894211802e-16, 3.051655962978219e-16,
    3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16,
    3.1555744654528006e-16, 3.1704154791040285e-16, 3.1852593363044065e-16,
    3.2001073454440114e-16, 3.214960811527447e-16, 3.2298210370394156e-16,
    3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16,
    3.3341411523123725e-16, 3.3491023205407785e-16, 3.364081996918765e-16,
    3.37908150518595e-16, 3.394102175841489e-16, 3.409145347003126e-16,
    3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16,
    3.5151919672760744e-16, 3.53046452078274e-16, 3.5457721079774357e-16,
    3.5611161930983884e-16, 3.5764982583726505e-16, 3.59191980508603e-16,
    3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16,
    3.7011067458828983e-16, 3.716900855823823e-16, 3.7327490092779435e-16,
    3.7486529645684887e-16, 3.7646145133120287e-16, 3.7806354820089604e-16,
    3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16,
    3.894607570481926e-16, 3.9111744183782054e-16, 3.9278189920805415e-16,
    3.944543570720877e-16, 3.9613504910761354e-16, 3.9782421502646826e-16,
    3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16,
    4.0990718603532664e-16, 4.1167359738030257e-16, 4.134509635544236e-16,
    4.1523960294026883e-16, 4.170398440568316e-16, 4.1885202607101123e-16,
    4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16,
    4.3190263810026294e-16, 4.338240305622791e-16, 4.357609972736849e-16,
    4.3771402012585875e-16, 4.3968359995105214e-16, 4.4167025761542035e-16,
    4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16,
    4.561035841567422e-16, 4.582484498109567e-16, 4.604162081631153e-16,
    4.626076619547846e-16, 4.648236531543207e-16, 4.670650656712631e-16,
    4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16,
    4.835513029411525e-16, 4.860340511450812e-16, 4.885526531353603e-16,
    4.91108629959527e-16, 4.937035980240335e-16, 4.963392774403987e-16,
    4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16,
    5.161000557743228e-16, 5.191394311757699e-16, 5.222416338000234e-16,
    5.254101724177597e-16, 5.286488569504945e-16, 5.3196183453384e-16,
    5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16,
    5.576748932926576e-16, 5.617895553555417e-16, 5.660408920082422e-16,
    5.704404621291389e-16, 5.750013768919895e-16, 5.797385945724594e-16,
    5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16,
    6.197089894581626e-16, 6.268046963301284e-16, 6.344122407127506e-16,
    6.426239659548055e-16, 6.515603317344994e-16, 6.613827885097664e-16,
    6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16,
    8.113849337656484e-16,
])
_ZIGGURAT_KI = np.array([
    0xEF33D8025EF6A, 0x0000000000000, 0xC08BE98FBC6A8, 0xDA354FABD8142,
    0xE51F67EC1EEEA, 0xEB255E9D3F77E, 0xEEF4B817ECAB9, 0xF19470AFA44AA,
    0xF37ED61FFCB18, 0xF4F469561255C, 0xF61A5E41BA396, 0xF707A755396A4,
    0xF7CB2EC28449A, 0xF86F10C6357D3, 0xF8FA6578325DE, 0xF9724C74DD0DA,
    0xF9DA907DBF509, 0xFA360F581FA74, 0xFA86FDE5B4BF8, 0xFACF160D354DC,
    0xFB0FB6718B90F, 0xFB49F8D5374C6, 0xFB7EC2366FE77, 0xFBAECE9A1E50E,
    0xFBDAB9D040BED, 0xFC03060FF6C57, 0xFC2821037A248, 0xFC4A67AE25BD1,
    0xFC6A2977AEE31, 0xFC87AA92896A4, 0xFCA325E4BDE85, 0xFCBCCE902231A,
    0xFCD4D12F839C4, 0xFCEB54D8FEC99, 0xFD007BF1DC930, 0xFD1464DD6C4E6,
    0xFD272A8E2F450, 0xFD38E4FF0C91E, 0xFD49A9990B478, 0xFD598B8920F53,
    0xFD689C08E99EC, 0xFD76EA9C8E832, 0xFD848547B08E8, 0xFD9178BAD2C8C,
    0xFD9DD07A7ADD2, 0xFDA9970105E8C, 0xFDB4D5DC02E20, 0xFDBF95C5BFCD0,
    0xFDC9DEBB99A7D, 0xFDD3B8118729D, 0xFDDD288342F90, 0xFDE6364369F64,
    0xFDEEE708D514E, 0xFDF7401A6B42E, 0xFDFF46599ED40, 0xFE06FE4BC24F2,
    0xFE0E6C225A258, 0xFE1593C28B84C, 0xFE1C78CBC3F99, 0xFE231E9DB1CAA,
    0xFE29885DA1B91, 0xFE2FB8FB54186, 0xFE35B33558D4A, 0xFE3B799D0002A,
    0xFE410E99EAD7F, 0xFE46746D47734, 0xFE4BAD34C095C, 0xFE50BAED29524,
    0xFE559F74EBC78, 0xFE5A5C8E41212, 0xFE5EF3E138689, 0xFE6366FD91078,
    0xFE67B75C6D578, 0xFE6BE661E11AA, 0xFE6FF55E5F4F2, 0xFE73E5900A702,
    0xFE77B823E9E39, 0xFE7B6E37070A2, 0xFE7F08D774243, 0xFE8289053F08C,
    0xFE85EFB35173A, 0xFE893DC840864, 0xFE8C741F0CEBC, 0xFE8F9387D4EF6,
    0xFE929CC879B1D, 0xFE95909D388EA, 0xFE986FB939AA2, 0xFE9B3AC714866,
    0xFE9DF2694B6D5, 0xFEA0973ABE67C, 0xFEA329CF166A4, 0xFEA5AAB32952C,
    0xFEA81A6D5741A, 0xFEAA797DE1CF0, 0xFEACC85F3D920, 0xFEAF07865E63C,
    0xFEB13762FEC13, 0xFEB3585FE2A4A, 0xFEB56AE3162B4, 0xFEB76F4E284FA,
    0xFEB965FE62014, 0xFEBB4F4CF9D7C, 0xFEBD2B8F449D0, 0xFEBEFB16E2E3E,
    0xFEC0BE31EBDE8, 0xFEC2752B15A15, 0xFEC42049DAFD3, 0xFEC5BFD29F196,
    0xFEC75406CEEF4, 0xFEC8DD2500CB4, 0xFECA5B6911F12, 0xFECBCF0C427FE,
    0xFECD38454FB15, 0xFECE97488C8B3, 0xFECFEC47F91B7, 0xFED1377358528,
    0xFED278F844903, 0xFED3B10242F4C, 0xFED4DFBAD586E, 0xFED605498C3DD,
    0xFED721D414FE8, 0xFED8357E4A982, 0xFED9406A42CC8, 0xFEDA42B85B704,
    0xFEDB3C8746AB4, 0xFEDC2DF416652, 0xFEDD171A46E52, 0xFEDDF813C8AD3,
    0xFEDED0F909980, 0xFEDFA1E0FD414, 0xFEE06AE124BC4, 0xFEE12C0D95A06,
    0xFEE1E579006E0, 0xFEE29734B6524, 0xFEE34150AE4BC, 0xFEE3E3DB89B3C,
    0xFEE47EE2982F4, 0xFEE51271DB086, 0xFEE59E9407F41, 0xFEE623528B42E,
    0xFEE6A0B5897F1, 0xFEE716C3E077A, 0xFEE7858327B82, 0xFEE7ECF7B06BA,
    0xFEE84D2484AB2, 0xFEE8A60B66343, 0xFEE8F7ACCC851, 0xFEE94207E25DA,
    0xFEE9851A829EA, 0xFEE9C0E13485C, 0xFEE9F557273F4, 0xFEEA22762CCAE,
    0xFEEA4836B42AC, 0xFEEA668FC2D71, 0xFEEA7D76ED6FA, 0xFEEA8CE04FA0A,
    0xFEEA94BE8333B, 0xFEEA950296410, 0xFEEA8D9C0075E, 0xFEEA7E7897654,
    0xFEEA678481D24, 0xFEEA48AA29E83, 0xFEEA21D22E4DA, 0xFEE9F2E352024,
    0xFEE9BBC26AF2E, 0xFEE97C524F2E4, 0xFEE93473C0A3A, 0xFEE8E40557516,
    0xFEE88AE369C7A, 0xFEE828E7F3DFD, 0xFEE7BDEA7B888, 0xFEE749BFF37FF,
    0xFEE6CC3A9BD5E, 0xFEE64529E007E, 0xFEE5B45A32888, 0xFEE51994E57B6,
    0xFEE474A0006CF, 0xFEE3C53E12C50, 0xFEE30B2E02AD8, 0xFEE2462AD8205,
    0xFEE175EB83C5A, 0xFEE09A22A1447, 0xFEDFB27E349CC, 0xFEDEBEA76216C,
    0xFEDDBE422047E, 0xFEDCB0ECE39D3, 0xFEDB964042CF4, 0xFEDA6DCE938C9,
    0xFED937237E98D, 0xFED7F1C38A836, 0xFED69D2B9C02B, 0xFED538D06AE00,
    0xFED3C41DEA422, 0xFED23E76A2FD8, 0xFED0A732FE644, 0xFECEFDA07FE34,
    0xFECD4100EB7B8, 0xFECB708956EB4, 0xFEC98B61230C1, 0xFEC790A0DA978,
    0xFEC57F50F31FE, 0xFEC356686C962, 0xFEC114CB4B335, 0xFEBEB948E6FD0,
    0xFEBC429A0B692, 0xFEB9AF5EE0CDC, 0xFEB6FE1C98542, 0xFEB42D3AD1F9E,
    0xFEB13B00B2D4B, 0xFEAE2591A02E9, 0xFEAAEAE992257, 0xFEA788D8EE326,
    0xFEA3FCFFD73E5, 0xFEA044C8DD9F6, 0xFE9C5D62F563B, 0xFE9843BA947A4,
    0xFE93F471D4728, 0xFE8F6BD76C5D6, 0xFE8AA5DC4E8E6, 0xFE859E07AB1EA,
    0xFE804F690A940, 0xFE7AB488233C0, 0xFE74C751F6AA5, 0xFE6E8102AA202,
    0xFE67DA0B6ABD8, 0xFE60C9F38307E, 0xFE5947338F742, 0xFE51470977280,
    0xFE48BD436F458, 0xFE3F9BFFD1E37, 0xFE35D35EEB19C, 0xFE2B5122FE4FE,
    0xFE20003995557, 0xFE13C82788314, 0xFE068C4EE67B0, 0xFDF82B02B71AA,
    0xFDE87C57EFEAA, 0xFDD7509C63BFD, 0xFDC46E529BF13, 0xFDAF8F82E0282,
    0xFD985E1B2BA75, 0xFD7E6EF48CF04, 0xFD613ADBD650B, 0xFD40149E2F012,
    0xFD1A1A7B4C7AC, 0xFCEE204761F9E, 0xFCBA8D85E11B2, 0xFC7D26ECD2D22,
    0xFC32B2F1E22ED, 0xFBD6581C0B83A, 0xFB606C4005434, 0xFAC40582A2874,
    0xF9E971E014598, 0xF89FA48A41DFC, 0xF66C5F7F0302C, 0xF1A5A4B331C4A,
], dtype=np.uint64)

#: ``srandom`` then one step: ``(inc + initstate)·M² + inc·(M + 1)``.
_PCG_MULT_SQ = (_PCG_MULT * _PCG_MULT) & _MASK128
_MASK52 = (1 << 52) - 1


def _add128(a_hi, a_lo, b_hi, b_lo):
    """``a + b mod 2**128`` for 128-bit values held as hi/lo uint64 columns."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul128(a_hi, a_lo, c: int):
    """``a * c mod 2**128`` for hi/lo uint64 columns and a 128-bit constant.

    Only the high half of ``a_lo * c_lo`` needs more than uint64
    arithmetic; it is assembled from the 32-bit limb products.
    """
    c_hi, c_lo = c >> 64, c & _MASK64
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    c0, c1 = c_lo & _MASK32, c_lo >> 32
    p00, p01, p10, p11 = a0 * c0, a0 * c1, a1 * c0, a1 * c1
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + a_lo * c_hi + a_hi * c_lo, a_lo * c_lo


def first_draws(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each seeded lane's first ``normal()`` and ``uniform()`` draw.

    ``words`` are :func:`seed_state_words` rows.  Lane ``i`` of the
    result is what a generator seeded from row ``i`` returns for its
    first ``standard_normal`` and ``random`` draw: the first PCG64
    output ``r`` (XSL-RR of the state after one step) through numpy's
    ziggurat fast path, and ``(r >> 11) * 2**-53``.  The normal column
    holds NaN where the ziggurat rejects ``r`` (about 1.5 % of lanes);
    numpy then draws again, which only a real generator reproduces.
    """
    init_hi, init_lo, seq_hi, seq_lo = words.T
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    hi, lo = _add128(
        *_mul128(*_add128(inc_hi, inc_lo, init_hi, init_lo), _PCG_MULT_SQ),
        *_mul128(inc_hi, inc_lo, _PCG_MULT + 1),
    )
    x = hi ^ lo
    rot = hi >> 58
    # (64 - rot) & 63 keeps rotation 0 a no-op instead of a 64-bit shift.
    r = (x >> rot) | (x << ((64 - rot) & 63))
    idx = r & 0xFF
    rabs = (r >> 9) & _MASK52
    z = rabs.astype(np.float64) * _ZIGGURAT_WI[idx]
    np.negative(z, out=z, where=(r & 0x100) != 0)
    z[rabs >= _ZIGGURAT_KI[idx]] = np.nan
    return z, (r >> 11).astype(np.float64) * 2.0**-53


class StreamBank:
    """Batch-seeded deterministic streams with precomputed first draws.

    ``lanes()`` seeds many coordinate tuples in one vectorized pass and
    precomputes each stream's first draw (:func:`first_draws`), stored
    as per-bank columns indexed by one lane number per tuple; a grid
    reads its draws as columns (``normals``, ``uniforms``).  ``blocks()``
    seeds one contiguous run of lanes per coordinate prefix, one per
    shared last coordinate (a profiled run's counters).  Every draw is
    bit-identical to :func:`stream`'s generator's.  Only what the columns
    cannot answer writes a real PCG64 state into the bank's one reused
    generator (``generator``, ``stream``): ``size=`` draws (the meter),
    and the lanes numpy's ziggurat rejects.  Unprepared coordinates are
    seeded on demand (reference path), so the bank is always correct,
    just slower when cold.
    """

    def __init__(self, seed: int | None = None) -> None:
        self.base = GLOBAL_SEED if seed is None else seed
        self._lanes: dict[tuple, int] = {}
        self._blocks: dict[tuple, int] = {}
        self._size = 0
        self._words = np.empty((0, 4), dtype=np.uint64)
        self._normal = np.empty(0)
        self._uniform = np.empty(0)
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)

    def prepare(self, coords_list: "list[tuple]") -> None:
        """Seed every missing coordinate tuple in one vectorized pass."""
        lanes = self._lanes
        missing = list(dict.fromkeys(c for c in coords_list if c not in lanes))
        if missing:
            self._extend(missing, seed_state_words(self.base, stable_hashes(missing)))

    def lanes(self, coords_list: "list[tuple]") -> np.ndarray:
        """Each coordinate tuple's lane, seeding the missing ones first."""
        self.prepare(coords_list)
        return np.fromiter(
            map(self._lanes.__getitem__, coords_list), np.intp, len(coords_list)
        )

    def blocks(self, prefixes: "list[tuple]", tails: "tuple[bytes, ...]") -> list[int]:
        """First lane of each prefix's block, seeding missing blocks in one pass.

        Lane ``start + j`` of a prefix's block is the stream of
        ``prefix + (t_j,)``, where ``tails[j]`` is ``repr(t_j)`` encoded
        as UTF-8 (:func:`prefix_hashes`).
        """
        blocks = self._blocks
        missing = [p for p in dict.fromkeys(prefixes) if (p, tails) not in blocks]
        if missing:
            hashes = [h for p in missing for h in prefix_hashes(p, tails)]
            start = self._extend((), seed_state_words(self.base, hashes))
            for i, prefix in enumerate(missing):
                blocks[(prefix, tails)] = start + i * len(tails)
        return [blocks[(p, tails)] for p in prefixes]

    def normals(self, lanes: np.ndarray, drawn=True) -> np.ndarray:
        """Each lane's first ``standard_normal`` draw, as a column.

        Lanes outside the ``drawn`` mask read 0.0 and draw nothing.
        ``normal(loc, scale)`` returns ``loc + scale * z`` of this draw.
        """
        z = np.where(drawn, self._normal[lanes], 0.0)
        rejected: dict[int, float] = {}
        for i in np.flatnonzero(np.isnan(z)).tolist():
            lane = int(lanes[i])
            if lane not in rejected:
                rejected[lane] = self.generator(lane).standard_normal()
            z[i] = rejected[lane]
        return z

    def uniforms(self, lanes: np.ndarray) -> np.ndarray:
        """Each lane's first ``random()`` draw, as a column."""
        return self._uniform[lanes]

    def _extend(self, coords_list: "tuple | list[tuple]", words: np.ndarray) -> int:
        """Append one lane per row of ``words``; returns the first new lane.

        The lanes are those of ``coords_list``'s (new, distinct) tuples,
        if given.
        """
        normal, uniform = first_draws(words)
        n, k = self._size, len(words)
        if n + k > len(self._normal):
            # Exact fit for grid-sized batches; 25 % headroom keeps a
            # run of on-demand single lanes from copying every time.
            size = max(n + k, n + n // 4)
            columns = []
            for column in (self._words, self._normal, self._uniform):
                grown = np.empty((size,) + column.shape[1:], dtype=column.dtype)
                grown[:n] = column[:n]
                columns.append(grown)
            self._words, self._normal, self._uniform = columns
        self._words[n : n + k] = words
        self._normal[n : n + k] = normal
        self._uniform[n : n + k] = uniform
        self._size = n + k
        self._lanes.update(zip(coords_list, range(n, n + k)))
        return n

    def stream(self, *coords: Any) -> np.random.Generator:
        """:func:`stream`'s generator of the coordinates, fresh.

        Valid until the next ``stream()`` or ``generator()`` call.
        """
        (lane,) = self.lanes([coords])
        return self.generator(int(lane))

    def generator(self, lane: int) -> np.random.Generator:
        """A lane's generator, fresh: its PCG64 state written into the
        bank's one reused generator (valid until the next such call)."""
        w0, w1, w2, w3 = self._words[lane].tolist()
        initstate = (w0 << 64) | w1
        initseq = (w2 << 64) | w3
        # PCG64.srandom: state=0; inc=(initseq<<1)|1; step; state+=initstate;
        # step — collapsed into one LCG advance of (inc + initstate).
        inc = ((initseq << 1) | 1) & _MASK128
        state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        self._bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._generator

"""REAL baseline JPEG codec — stdlib + numpy, no PIL.

Closes the last declared codec stand-in (VERDICT r3 item 6): the
multimodal image path gets a genuine DCT entropy codec for JPEG/JFIF the
same way png.py made PNG real. Reference behavior anchored:
``FileUtils.encode_image`` (reference services/converters/
file_utils.py:38-75) re-encodes images under a KB budget; with this
module the JPEG leg of that hook is a real encode.

Scope (documented contract):
- **Encoder**: baseline sequential DCT (SOF0), 8-bit, grayscale or RGB
  (JFIF YCbCr 4:4:4 — no chroma subsampling on encode), Annex K
  quantization tables with IJG quality scaling, Annex K Huffman tables,
  no restart markers. DC quantization is computed in EXACT integer
  arithmetic (round-half-away-from-zero of blocksum/(8·Q00)), so
  constant blocks round-trip deterministically — the property the SQL
  oracle leans on.
- **Decoder**: general baseline sequential (SOF0) — 1–4 components,
  arbitrary sampling factors up to 2×2 (4:4:4 / 4:2:2 / 4:4:0 / 4:2:0),
  multiple DQT/DHT segments, DRI + RSTn restart-interval handling,
  0xFF00 byte unstuffing, APPn/COM skipping. Progressive (SOF2),
  arithmetic coding and 12-bit precision are rejected loudly.
- **Deterministic rounding contract** (both sides, replicated by the
  SQL oracle): encoder quantization rounds half away from zero; decoder
  sample reconstruction is ``clip(floor(idct + 128.5), 0, 255)``; color
  conversion rounds ``floor(x + 0.5)``.

Public specs only: ITU-T T.81 / ISO 10918-1 (incl. Annex K tables),
JFIF 1.02 (ITU-R BT.601 color conversion).
"""

from __future__ import annotations

import struct

import numpy as np

# --------------------------------------------------------------------------
# constants: Annex K quantization + Huffman tables, zigzag order
# --------------------------------------------------------------------------

QUANT_LUM = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int64).reshape(8, 8)

QUANT_CHROM = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int64).reshape(8, 8)

ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63],
    dtype=np.int64)

# Annex K Huffman table specs: (BITS counts per code length 1..16, HUFFVAL)
DC_LUM_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_LUM_VALS = list(range(12))
DC_CHROM_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
DC_CHROM_VALS = list(range(12))

AC_LUM_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
AC_LUM_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA]

AC_CHROM_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
AC_CHROM_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
    0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
    0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
    0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
    0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
    0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA]


def _dct_matrix() -> np.ndarray:
    k = np.arange(8, dtype=np.float64)
    a = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / 16) * np.sqrt(0.25)
    a[0, :] = np.sqrt(0.125)
    return a


_A = _dct_matrix()


def quality_quant_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """IJG quality scaling of the Annex K base tables (libjpeg
    jcparam.c convention — public source): scale = 5000/q below 50,
    200-2q at/above; entries clamped to [1, 255]."""
    if not 1 <= quality <= 100:
        raise ValueError("quality must be 1..100")
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    out = []
    for base in (QUANT_LUM, QUANT_CHROM):
        q = (base * scale + 50) // 100
        out.append(np.clip(q, 1, 255).astype(np.int64))
    return out[0], out[1]


# --------------------------------------------------------------------------
# Huffman code construction (T.81 Annex C) + bit IO
# --------------------------------------------------------------------------

def _build_codes(bits: list[int], vals: list[int]) -> dict[int, tuple[int, int]]:
    """symbol → (code, length), canonical per T.81 C.2."""
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            codes[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return codes


def _build_decode_map(bits: list[int], vals: list[int]) -> dict[tuple[int, int], int]:
    """(length, code) → symbol, for the progressive-read decoder."""
    return {(ln, c): s for s, (c, ln) in _build_codes(bits, vals).items()}


class _BitWriter:
    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            b = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(b)
            if b == 0xFF:  # byte stuffing
                self.out.append(0x00)
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def flush(self) -> bytes:
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # pad with 1-bits per spec
        return bytes(self.out)


class _BitReader:
    """Entropy-coded-segment reader: unstuffs 0xFF00, stops at markers
    (leaving position on the 0xFF) and reports RSTn."""

    def __init__(self, data: bytes, pos: int) -> None:
        self.data = data
        self.pos = pos
        self.acc = 0
        self.nbits = 0
        self.marker: int | None = None

    def _fill(self) -> None:
        d = self.data
        if self.pos >= len(d):
            raise ValueError("truncated JPEG scan")
        b = d[self.pos]
        if b == 0xFF:
            nxt = d[self.pos + 1] if self.pos + 1 < len(d) else 0xD9
            if nxt == 0x00:
                self.pos += 2
            else:  # a real marker terminates the entropy segment
                self.marker = nxt
                raise ValueError("marker inside scan")
        else:
            self.pos += 1
        self.acc = (self.acc << 8) | b
        self.nbits += 8

    def bit(self) -> int:
        if self.nbits == 0:
            self._fill()
        self.nbits -= 1
        return (self.acc >> self.nbits) & 1

    def bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.bit()
        return v

    def align_and_expect_rst(self, k: int) -> None:
        """Consume padding to the byte boundary and the RST(k) marker."""
        self.acc = 0
        self.nbits = 0
        d = self.data
        while self.pos + 1 < len(d) and not (
                d[self.pos] == 0xFF and d[self.pos + 1] != 0x00):
            self.pos += 1
        if self.pos + 1 >= len(d):
            raise ValueError("missing restart marker")
        m = d[self.pos + 1]
        if m != 0xD0 + (k & 7):
            raise ValueError(f"expected RST{k & 7}, found 0xFF{m:02X}")
        self.pos += 2


def _huff_read(r: _BitReader, dec: dict[tuple[int, int], int]) -> int:
    code = 0
    for length in range(1, 17):
        code = (code << 1) | r.bit()
        s = dec.get((length, code))
        if s is not None:
            return s
    raise ValueError("invalid Huffman code in scan")


def _receive_extend(r: _BitReader, s: int) -> int:
    if s == 0:
        return 0
    v = r.bits(s)
    if v < (1 << (s - 1)):  # negative branch (T.81 F.2.2.1 EXTEND)
        v -= (1 << s) - 1
    return v


def _category(v: int) -> int:
    return int(v).bit_length() if v >= 0 else int(-v).bit_length()


# --------------------------------------------------------------------------
# encoder
# --------------------------------------------------------------------------

def _rgb_to_ycbcr(img: np.ndarray) -> np.ndarray:
    """JFIF / BT.601 full-range, floor(x+0.5) rounding, clamp to uint8."""
    f = img.astype(np.float64)
    r, g, b = f[..., 0], f[..., 1], f[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    out = np.stack([y, cb, cr], axis=-1)
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def _quantize_block(block: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Level-shifted uint8 block → quantized coefficients (int64).

    DC by exact integer round-half-away(sum/(8·q00)) — bit-stable for the
    constant-block oracle; AC via float FDCT with the same
    round-half-away convention (ties are measure-zero for non-degenerate
    inputs; constant blocks have exactly-zero AC so no tie can occur on
    the oracle path)."""
    x = block.astype(np.float64) - 128.0
    s = _A @ x @ _A.T
    aq = np.floor(np.abs(s) / q + 0.5) * np.sign(s)
    out = aq.astype(np.int64)
    # exact DC: S00 = (sum(block) - 64*128) / 8
    m = int(block.sum(dtype=np.int64)) - 64 * 128
    q00 = int(q[0, 0])
    sign = 1 if m >= 0 else -1
    out[0, 0] = sign * ((2 * abs(m) + 8 * q00) // (16 * q00))
    return out


def _encode_block(w: _BitWriter, coeffs: np.ndarray, pred: int,
                  dc_codes, ac_codes) -> int:
    zz = coeffs.reshape(64)[ZIGZAG]
    dc = int(zz[0])
    diff = dc - pred
    s = _category(diff)
    code, ln = dc_codes[s]
    w.write(code, ln)
    if s:
        w.write(diff if diff >= 0 else diff + (1 << s) - 1, s)
    run = 0
    last_nz = 0
    nz = np.nonzero(zz[1:])[0]
    last_nz = int(nz[-1]) + 1 if len(nz) else 0
    for k in range(1, last_nz + 1):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, ln = ac_codes[0xF0]  # ZRL
            w.write(code, ln)
            run -= 16
        s = _category(v)
        code, ln = ac_codes[(run << 4) | s]
        w.write(code, ln)
        w.write(v if v >= 0 else v + (1 << s) - 1, s)
        run = 0
    if last_nz < 63:
        code, ln = ac_codes[0x00]  # EOB
        w.write(code, ln)
    return dc


def _seg(marker: int, payload: bytes) -> bytes:
    return bytes([0xFF, marker]) + struct.pack(">H", len(payload) + 2) + payload


def _pad_plane(p: np.ndarray, bh: int, bw: int) -> np.ndarray:
    """Edge-replicate a plane out to (bh·8, bw·8)."""
    h, w = p.shape
    pp = np.empty((bh * 8, bw * 8), dtype=np.uint8)
    pp[:h, :w] = p
    pp[h:, :w] = p[h - 1:h, :]
    pp[:, w:] = pp[:, w - 1:w]
    return pp


def _downsample_420(p: np.ndarray) -> np.ndarray:
    """2×2 box average (round half up) — the standard chroma decimation."""
    h, w = p.shape
    if h % 2:
        p = np.vstack([p, p[-1:]])
    if w % 2:
        p = np.hstack([p, p[:, -1:]])
    a = p.astype(np.int64)
    s = a[0::2, 0::2] + a[0::2, 1::2] + a[1::2, 0::2] + a[1::2, 1::2]
    return ((s + 2) // 4).astype(np.uint8)


def jpeg_encode(img: np.ndarray, quality: int = 50,
                subsampling: str = "444",
                restart_interval: int = 0) -> bytes:
    """uint8 (H,W) grayscale or (H,W,3) RGB → baseline JFIF bytes.

    ``subsampling``: '444' (no chroma decimation) or '420' (2×2 box
    average, Y at 2×2 sampling factors — the common web JPEG layout;
    ignored for grayscale). ``restart_interval``: emit DRI + RSTn every
    that many MCUs (0 = none) — error-resilience framing real crawl
    JPEGs carry, and at cluster scale the hook a parallel per-segment
    decoder would split on."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    gray = img.ndim == 2
    if not gray and (img.ndim != 3 or img.shape[2] != 3):
        raise ValueError("expected (H,W) or (H,W,3) uint8")
    if subsampling not in ("444", "420"):
        raise ValueError("subsampling must be '444' or '420'")
    h, w = img.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("empty image")
    qlum, qchrom = quality_quant_tables(quality)

    if gray:
        planes = [img]
        samp = [(1, 1)]
        qtabs, qids = [qlum], [0]
    else:
        ycc = _rgb_to_ycbcr(img)
        planes = [ycc[..., c] for c in range(3)]
        if subsampling == "420":
            planes = [planes[0], _downsample_420(planes[1]),
                      _downsample_420(planes[2])]
            samp = [(2, 2), (1, 1), (1, 1)]
        else:
            samp = [(1, 1), (1, 1), (1, 1)]
        qtabs, qids = [qlum, qchrom, qchrom], [0, 1, 1]
    ncomp = len(planes)

    out = bytearray()
    out += b"\xFF\xD8"  # SOI
    out += _seg(0xE0, b"JFIF\x00\x01\x02\x00\x00\x01\x00\x01\x00\x00")
    for tid, q in ((0, qlum),) if gray else ((0, qlum), (1, qchrom)):
        out += _seg(0xDB, bytes([tid]) + bytes(
            int(q.reshape(64)[ZIGZAG][k]) for k in range(64)))
    sof = struct.pack(">BHHB", 8, h, w, ncomp)
    for ci in range(ncomp):
        sof += bytes([ci + 1, (samp[ci][0] << 4) | samp[ci][1], qids[ci]])
    out += _seg(0xC0, sof)

    tables = [(0x00, DC_LUM_BITS, DC_LUM_VALS),
              (0x10, AC_LUM_BITS, AC_LUM_VALS)]
    if not gray:
        tables += [(0x01, DC_CHROM_BITS, DC_CHROM_VALS),
                   (0x11, AC_CHROM_BITS, AC_CHROM_VALS)]
    for tc_th, bits, vals in tables:
        out += _seg(0xC4, bytes([tc_th]) + bytes(bits) + bytes(vals))

    if restart_interval:
        out += _seg(0xDD, struct.pack(">H", restart_interval))
    sos = bytes([ncomp])
    for ci in range(ncomp):
        td_ta = 0x00 if ci == 0 else 0x11
        sos += bytes([ci + 1, td_ta])
    sos += bytes([0, 63, 0])
    out += _seg(0xDA, sos)

    dc_lum = _build_codes(DC_LUM_BITS, DC_LUM_VALS)
    ac_lum = _build_codes(AC_LUM_BITS, AC_LUM_VALS)
    dc_chr = _build_codes(DC_CHROM_BITS, DC_CHROM_VALS)
    ac_chr = _build_codes(AC_CHROM_BITS, AC_CHROM_VALS)
    bw = _BitWriter()
    preds = [0] * ncomp
    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    mcux = (w + 8 * hmax - 1) // (8 * hmax)
    mcuy = (h + 8 * vmax - 1) // (8 * vmax)
    padded = [_pad_plane(p, mcuy * samp[ci][1], mcux * samp[ci][0])
              for ci, p in enumerate(planes)]
    mcu_count = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_count and \
                    mcu_count % restart_interval == 0:
                k = mcu_count // restart_interval - 1
                out += bw.flush()
                out += bytes([0xFF, 0xD0 + (k & 7)])
                bw = _BitWriter()
                preds = [0] * ncomp
            mcu_count += 1
            for ci in range(ncomp):
                sh, sv = samp[ci]
                for byy in range(sv):
                    for bxx in range(sh):
                        by = my * sv + byy
                        bx = mx * sh + bxx
                        block = padded[ci][by * 8:by * 8 + 8,
                                           bx * 8:bx * 8 + 8]
                        coeffs = _quantize_block(block, qtabs[ci])
                        dcc, acc = (dc_lum, ac_lum) if ci == 0 \
                            else (dc_chr, ac_chr)
                        preds[ci] = _encode_block(bw, coeffs, preds[ci],
                                                  dcc, acc)
    out += bw.flush()
    out += b"\xFF\xD9"  # EOI
    return bytes(out)


# --------------------------------------------------------------------------
# decoder
# --------------------------------------------------------------------------

def _idct_block(coeffs: np.ndarray) -> np.ndarray:
    return _A.T @ coeffs.astype(np.float64) @ _A


def jpeg_decode(data: bytes, return_coeffs: bool = False):
    """Baseline JFIF bytes → uint8 (H,W) or (H,W,3).

    ``return_coeffs=True`` instead returns
    ``(coeff_planes, quant_tables, (h, w))`` with the DEQUANTIZED-before
    (i.e. raw quantized) coefficient planes per component — the
    coefficient-identity hook the pytest suite uses to validate the
    entropy layer bit-for-bit against the encoder."""
    if data[:2] != b"\xFF\xD8":
        raise ValueError("not a JPEG (missing SOI)")
    pos = 2
    qtabs: dict[int, np.ndarray] = {}
    huff_dc: dict[int, dict] = {}
    huff_ac: dict[int, dict] = {}
    comps: list[dict] = []
    h = w = None
    restart_interval = 0
    scan_order: list[dict] = []

    while pos + 4 <= len(data):
        if data[pos] != 0xFF:
            raise ValueError(f"expected marker at {pos}")
        marker = data[pos + 1]
        if marker == 0xD9:  # EOI
            break
        (seglen,) = struct.unpack(">H", data[pos + 2:pos + 4])
        payload = data[pos + 4:pos + 2 + seglen]
        pos += 2 + seglen
        if marker == 0xDB:  # DQT (may hold several tables)
            p = 0
            while p < len(payload):
                pq, tq = payload[p] >> 4, payload[p] & 0x0F
                if pq != 0:
                    raise ValueError("16-bit quant tables not supported")
                zz = np.frombuffer(payload[p + 1:p + 65], dtype=np.uint8)
                q = np.zeros(64, dtype=np.int64)
                q[ZIGZAG] = zz
                qtabs[tq] = q.reshape(8, 8)
                p += 65
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7,
                        0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError(
                f"unsupported SOF 0xFF{marker:02X} (only baseline "
                f"sequential SOF0 is implemented)")
        elif marker == 0xC0:  # SOF0
            prec, h, w, nc = struct.unpack(">BHHB", payload[:6])
            if prec != 8:
                raise ValueError("only 8-bit precision supported")
            p = 6
            for _ in range(nc):
                cid, hv, tq = payload[p], payload[p + 1], payload[p + 2]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 0x0F,
                              "tq": tq})
                p += 3
            for c in comps:
                if not (1 <= c["h"] <= 2 and 1 <= c["v"] <= 2):
                    raise ValueError(
                        f"sampling factor {c['h']}x{c['v']} unsupported "
                        f"(1 or 2 only)")
        elif marker == 0xC4:  # DHT (may hold several tables)
            p = 0
            while p < len(payload):
                tc, th = payload[p] >> 4, payload[p] & 0x0F
                bits = list(payload[p + 1:p + 17])
                nvals = sum(bits)
                vals = list(payload[p + 17:p + 17 + nvals])
                (huff_dc if tc == 0 else huff_ac)[th] = \
                    _build_decode_map(bits, vals)
                p += 17 + nvals
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack(">H", payload[:2])
        elif marker == 0xDA:  # SOS
            ns = payload[0]
            p = 1
            for _ in range(ns):
                cs, tdta = payload[p], payload[p + 1]
                comp = next(c for c in comps if c["id"] == cs)
                comp["td"], comp["ta"] = tdta >> 4, tdta & 0x0F
                scan_order.append(comp)
                p += 2
            break  # entropy data follows at `pos`
        # APPn / COM / others: skipped

    if h is None or not scan_order:
        raise ValueError("missing SOF/SOS")

    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcux = (w + 8 * hmax - 1) // (8 * hmax)
    mcuy = (h + 8 * vmax - 1) // (8 * vmax)
    for c in comps:
        c["bw"] = mcux * c["h"]
        c["bh"] = mcuy * c["v"]
        c["coef"] = np.zeros((c["bh"] * 8, c["bw"] * 8), dtype=np.int64)
        c["pred"] = 0

    r = _BitReader(data, pos)
    mcu_count = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_count and \
                    mcu_count % restart_interval == 0:
                r.align_and_expect_rst(mcu_count // restart_interval - 1)
                for c in comps:
                    c["pred"] = 0
            for c in scan_order:
                for byy in range(c["v"]):
                    for bxx in range(c["h"]):
                        zz = np.zeros(64, dtype=np.int64)
                        s = _huff_read(r, huff_dc[c["td"]])
                        diff = _receive_extend(r, s)
                        c["pred"] += diff
                        zz[0] = c["pred"]
                        k = 1
                        while k < 64:
                            rs = _huff_read(r, huff_ac[c["ta"]])
                            rr, ss = rs >> 4, rs & 0x0F
                            if ss == 0:
                                if rr == 15:  # ZRL
                                    k += 16
                                    continue
                                break  # EOB
                            k += rr
                            if k > 63:
                                raise ValueError("AC run overflows block")
                            zz[k] = _receive_extend(r, ss)
                            k += 1
                        blk = np.zeros(64, dtype=np.int64)
                        blk[ZIGZAG] = zz
                        by = my * c["v"] + byy
                        bx = mx * c["h"] + bxx
                        c["coef"][by * 8:by * 8 + 8, bx * 8:bx * 8 + 8] = \
                            blk.reshape(8, 8)
            mcu_count += 1

    if return_coeffs:
        return ([c["coef"].copy() for c in comps],
                [qtabs[c["tq"]].copy() for c in comps], (h, w))

    planes = []
    for c in comps:
        q = qtabs[c["tq"]]
        coef = c["coef"]
        ph, pw = coef.shape
        plane = np.empty((ph, pw), dtype=np.float64)
        for by in range(ph // 8):
            for bx in range(pw // 8):
                blk = coef[by * 8:by * 8 + 8, bx * 8:bx * 8 + 8] * q
                plane[by * 8:by * 8 + 8, bx * 8:bx * 8 + 8] = \
                    _idct_block(blk)
        samp = np.clip(np.floor(plane + 128.5), 0, 255).astype(np.uint8)
        # upsample to full resolution by replication (nearest)
        ry, rx = vmax // c["v"], hmax // c["h"]
        if ry > 1 or rx > 1:
            samp = np.repeat(np.repeat(samp, ry, axis=0), rx, axis=1)
        planes.append(samp[:h, :w])

    if len(planes) == 1:
        return planes[0]
    if len(planes) != 3:
        raise ValueError(f"{len(planes)}-component JPEG not supported")
    y = planes[0].astype(np.float64)
    cb = planes[1].astype(np.float64) - 128.0
    cr = planes[2].astype(np.float64) - 128.0
    rgb = np.stack([y + 1.402 * cr,
                    y - 0.344136 * cb - 0.714136 * cr,
                    y + 1.772 * cb], axis=-1)
    return np.clip(np.floor(rgb + 0.5), 0, 255).astype(np.uint8)


# --------------------------------------------------------------------------
# codec hooks: multimodal.encode_image and media_features drop-ins
# --------------------------------------------------------------------------

class JpegCodec:
    """Real-codec drop-in for multimodal.FakeImageCodec covering JPEG;
    PNG delegates to the real PNG codec — between the two, every format
    the reference's encode_image hook emits (file_utils.py:38-75) is a
    genuine encode."""

    def __init__(self, quality: int = 85) -> None:
        # default 85 matches the reference hook's re-encode quality
        # (FileUtils.encode_image, file_utils.py:64)
        from .png import PngCodec
        self.quality = quality
        self._png = PngCodec()

    def encode(self, img: np.ndarray, format: str = "JPEG") -> bytes:
        if format.upper() in ("JPEG", "JPG"):
            return jpeg_encode(img, quality=self.quality)
        return self._png.encode(img, format)


class JpegDecoder:
    """Real-decoder drop-in for multimodal.FakeImageDecoder (JPEG is
    self-describing; hints validated when provided). ``stats`` gives the
    integer features of ``image_jpeg_features``."""

    def __call__(self, payload: bytes, width: "int | None" = None,
                 height: "int | None" = None) -> np.ndarray:
        img = jpeg_decode(payload)
        if width is not None and img.shape[1] != width:
            raise ValueError(f"width hint {width} != decoded {img.shape[1]}")
        if height is not None and img.shape[0] != height:
            raise ValueError(f"height hint {height} != decoded {img.shape[0]}")
        return img

    @staticmethod
    def stats(images: list) -> dict:
        """width/height as decoded, pixel sum, min and max."""
        return {"width": [im.shape[1] for im in images],
                "height": [im.shape[0] for im in images],
                "sum_px": [int(im.sum(dtype=np.int64)) for im in images],
                "min_px": [int(im.min()) for im in images],
                "max_px": [int(im.max()) for im in images]}

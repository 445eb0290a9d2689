"""DuckDB SQL generators that mirror the engine's hash/LSH/ANN operators
bit-exactly, so the driver's oracle gate can hash-verify them.

Each generator returns ONE SQL statement (chained CTEs, no macros --
the driver runs a single ``con.sql(oracle)``).  64-bit modular
arithmetic rides on HUGEINT (int128) with explicit ``% 2^64`` folds and
UBIGINT for the bitwise steps; the constants are the same ones
``stages/dedup.py`` uses (FNV-ish polynomial prime, splitmix64
finalizer, seeded permutations).

Scope note: these oracles assume the ASCII corpus the driver ships
(``length(text) == octet_length(text)``); the engine itself hashes raw
UTF-8 bytes and needs no such assumption.
"""

from __future__ import annotations

import numpy as np

U64 = 1 << 64
_PRIME = 1099511628211
_SEED = 1469598103934665603
_MIX1 = 0xFF51AFD7ED558CCD
_MIX2 = 0xC4CEB9FE1A85EC53
_BANDP = 0x100000001B3


def _pow_values(n: int) -> str:
    """(j, p^j mod 2^64) literal table."""
    p = 1
    rows = []
    for j in range(n):
        rows.append(f"({j}, {p}::UBIGINT)")
        p = (p * _PRIME) % U64
    return ", ".join(rows)


def _bit_values() -> str:
    """(b, 2^b) literal table for bit extraction / assembly."""
    return ", ".join(f"({b}, {1 << b}::UBIGINT)" for b in range(64))


def _mulc(x: str, c: int) -> str:
    """``(x * c) mod 2^64`` for UBIGINT ``x`` and a full 64-bit constant
    ``c`` without overflowing HUGEINT (int128): split c into 32-bit
    halves so every intermediate stays < 2^96."""
    c_hi, c_lo = c >> 32, c & 0xFFFFFFFF
    lo = f"({x}::HUGEINT * {c_lo})"
    hi = f"((({x}::HUGEINT * {c_hi}) % {1 << 32}) * {1 << 32})"
    return f"CAST(({lo} + {hi}) % {U64} AS UBIGINT)"


def _mix64_ctes(src: str, col: str, keep: str, prefix: str = "m") -> str:
    """CTE chain applying splitmix64 to ``col`` (UBIGINT) of ``src``;
    final CTE is ``{prefix}ixed`` with columns ``{keep}, h`` (default
    ``mixed``; pass a distinct prefix to use the chain twice in one
    statement)."""
    return f"""
{prefix}1 AS (SELECT {keep}, xor({col}, {col} >> 33) AS h FROM {src}),
{prefix}2 AS (SELECT {keep}, {_mulc('h', _MIX1)} AS h FROM {prefix}1),
{prefix}3 AS (SELECT {keep}, xor(h, h >> 33) AS h FROM {prefix}2),
{prefix}4 AS (SELECT {keep}, {_mulc('h', _MIX2)} AS h FROM {prefix}3),
{prefix}ixed AS (SELECT {keep}, xor(h, h >> 33) AS h FROM {prefix}4)"""


def simhash_sql(max_token_len: int = 64) -> str:
    """Mirror of stages/dedup.py:simhash64 over ``documents``:
    whitespace tokens -> polynomial byte hash + splitmix64 -> per-doc
    64-bit majority vote.  Output (doc_id BIGINT, simhash BIGINT)."""
    return f"""
WITH pw(j, p) AS (VALUES {_pow_values(max_token_len)}),
bits(b, pw2) AS (VALUES {_bit_values()}),
toks AS (
  SELECT doc_id, u.tok
  FROM documents, UNNEST(regexp_split_to_array(text, '\\s')) AS u(tok)
  WHERE u.tok <> ''),
uniq AS (SELECT DISTINCT tok FROM toks),
chars AS (
  SELECT tok, CAST(i AS INT) AS i, ascii(substring(tok, CAST(i AS INT), 1))::UBIGINT AS byte
  FROM uniq, UNNEST(range(1, length(tok) + 1)) AS r(i)),
poly AS (
  SELECT c.tok,
    CAST(SUM((c.byte::HUGEINT * pw.p) % {U64}) % {U64} AS UBIGINT) AS hraw,
    CAST(max(c.i) AS UBIGINT) AS blen
  FROM chars c JOIN pw ON pw.j = c.i - 1 GROUP BY c.tok),
seeded AS (
  SELECT tok, xor(xor(hraw, CAST((blen::HUGEINT * {_PRIME}) % {U64} AS UBIGINT)), {_SEED}::UBIGINT) AS h
  FROM poly),
{_mix64_ctes('seeded', 'h', 'tok')},
occ AS (SELECT t.doc_id, m.h FROM toks t JOIN mixed m ON m.tok = t.tok),
ntok AS (SELECT doc_id, count(*) AS n FROM occ GROUP BY doc_id),
votes AS (
  SELECT o.doc_id, b.b, b.pw2,
    SUM(CASE WHEN (o.h >> b.b) & 1 = 1 THEN 1 ELSE 0 END) AS cnt
  FROM occ o CROSS JOIN bits b GROUP BY o.doc_id, b.b, b.pw2),
fp AS (
  SELECT v.doc_id,
    CAST(SUM(CASE WHEN 2 * v.cnt >= n.n THEN v.pw2::HUGEINT ELSE 0 END) % {U64} AS HUGEINT) AS u
  FROM votes v JOIN ntok n USING (doc_id) GROUP BY v.doc_id)
SELECT d.doc_id,
  CAST(CASE WHEN COALESCE(f.u, 0) >= {1 << 63} THEN COALESCE(f.u, 0) - {U64} ELSE COALESCE(f.u, 0) END AS BIGINT) AS simhash
FROM documents d LEFT JOIN fp f USING (doc_id)
"""


def _mulv(x: str, y: str) -> str:
    """``(x * y) mod 2^64`` for two UBIGINT SQL expressions: split y
    into 32-bit halves so intermediates stay < 2^97 (HUGEINT-safe)."""
    lo = f"({x}::HUGEINT * ({y} % {1 << 32}))"
    hi = f"((({x}::HUGEINT * ({y} >> 32)) % {1 << 32}) * {1 << 32})"
    return f"CAST(({lo} + {hi}) % {U64} AS UBIGINT)"


FP_SEED = 0x9E3779B97F4A7C15  # fingerprint64's seed (distinct from dedup)


def fingerprint_sql(max_len: int = 4096) -> str:
    """Mirror of stages/text.py:fingerprint64 over ``documents``:
    H = sum_j byte_j * PRIME^j (mod 2^64) over the raw bytes, then
    splitmix64(H xor len*PRIME xor seed).  Powers factor two-level
    (PRIME^j = PRIME^(j%64) * (PRIME^64)^(j//64)) so the literal tables
    stay at 64 + max_len/64 rows.  Valid for ASCII docs up to
    ``max_len`` chars (driver corpus max 553)."""
    p64 = pow(_PRIME, 64, U64)
    pw2_rows = ", ".join(
        f"({q}, {pow(p64, q, U64)}::UBIGINT)"
        for q in range(max_len // 64 + 1)
    )
    pp = _mulv("p1.p", "p2.p")
    return f"""
WITH pw1(r, p) AS (VALUES {_pow_values(64)}),
pw2(q, p) AS (VALUES {pw2_rows}),
chars AS (
  SELECT doc_id, CAST(i AS INT) AS i,
    ascii(substring(text, CAST(i AS INT), 1))::UBIGINT AS byte
  FROM documents, UNNEST(range(1, length(text) + 1)) AS r(i)),
terms AS (
  SELECT c.doc_id,
    (c.byte::HUGEINT * {pp}) % {U64} AS term
  FROM chars c
  JOIN pw1 p1 ON p1.r = (c.i - 1) % 64
  JOIN pw2 p2 ON p2.q = (c.i - 1) // 64),
hsum AS (
  SELECT doc_id, CAST(SUM(term) % {U64} AS UBIGINT) AS hraw
  FROM terms GROUP BY doc_id),
seeded AS (
  SELECT d.doc_id,
    xor(xor(COALESCE(h.hraw, 0),
            CAST((length(d.text)::HUGEINT * {_PRIME}) % {U64} AS UBIGINT)),
        {FP_SEED}::UBIGINT) AS h
  FROM documents d LEFT JOIN hsum h USING (doc_id)),
{_mix64_ctes('seeded', 'h', 'doc_id')}
SELECT doc_id,
  CAST(CASE WHEN h >= {1 << 63}::UBIGINT
       THEN h::HUGEINT - {U64} ELSE h::HUGEINT END AS BIGINT) AS fingerprint
FROM mixed
"""


def stratified_sample_sql(rates: dict[str, float], default_rate: float = 0.0,
                          key_col: str = "lang") -> str:
    """Mirror of stages/sample.py:stratified_sample over ``documents``:
    keep iff splitmix64(doc_id xor salt) % 2^32 < threshold(key).
    Thresholds are computed by the SAME rate_to_threshold and inlined
    as integers, so no float crosses the SQL boundary."""
    from equi7grid_ray.stages.sample import SAMPLE_SALT, rate_to_threshold

    whens = " ".join(
        f"WHEN '{k}' THEN {rate_to_threshold(v)}" for k, v in rates.items()
    )
    thr = f"CASE {key_col} {whens} ELSE {rate_to_threshold(default_rate)} END"
    return f"""
WITH h0 AS (
  SELECT doc_id, {key_col},
    xor(doc_id::UBIGINT, {int(SAMPLE_SALT)}::UBIGINT) AS h
  FROM documents),
{_mix64_ctes('h0', 'h', f'doc_id, {key_col}')}
SELECT doc_id, {key_col} FROM mixed
WHERE h % {1 << 32} < {thr}
"""


def minhash_constants(num_perm: int = 64, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    """The SAME permutation constants MinHasher(seed 42) builds."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, (1 << 61) - 1, num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, (1 << 61) - 1, num_perm, dtype=np.uint64)
    return a, b


def lsh_pairs_sql(num_perm: int = 64, bands: int = 16, shingle: int = 8,
                  max_bucket: int = 200) -> str:
    """Mirror of stages/dedup.py lsh_candidate_pairs over ``documents``:
    char-shingle Horner hashes -> 64 seeded affine-permutation minima ->
    banded FNV fold -> bucket join -> distinct candidate pairs
    (id_a BIGINT, id_b BIGINT).

    Valid for corpora where every doc has length >= shingle (the driver
    corpus: min 48); the engine additionally handles shorter docs."""
    a, b = minhash_constants(num_perm)
    perm_rows = ", ".join(
        f"({p}, {p // (num_perm // bands)}, {p % (num_perm // bands)}, "
        f"{int(a[p])}::UBIGINT, {int(b[p])}::UBIGINT)"
        for p in range(num_perm)
    )
    # Horner over k bytes: h = sum byte_{i+j} * p^(k-1-j)
    hp = [pow(_PRIME, shingle - 1 - j, U64) for j in range(shingle)]
    horner_rows = ", ".join(f"({j}, {hp[j]}::UBIGINT)" for j in range(shingle))
    r = num_perm // bands
    # band fold bh = ((s0*P ^ s1)*P ^ s2)... over r slots ordered by perm
    fold = "s[1]"
    for j in range(2, r + 1):
        fold = (
            f"xor(CAST((({fold})::HUGEINT * {_BANDP}) % {U64} AS UBIGINT), s[{j}])"
        )
    return f"""
WITH perms(p, band, slot, pa, pb) AS (VALUES {perm_rows}),
hp(j, pw) AS (VALUES {horner_rows}),
docs AS (SELECT doc_id, text FROM documents WHERE length(text) >= {shingle}),
wins AS (
  SELECT doc_id, CAST(i AS INT) AS i
  FROM docs, UNNEST(range(1, length(text) - {shingle} + 2)) AS r(i)),
chars AS (
  SELECT w.doc_id, w.i, hp.j,
    (ascii(substring(d.text, w.i + hp.j, 1))::HUGEINT * hp.pw) % {U64} AS term
  FROM wins w JOIN docs d USING (doc_id) CROSS JOIN hp),
wh AS (
  SELECT doc_id, i, CAST(SUM(term) % {U64} AS UBIGINT) AS h
  FROM chars GROUP BY doc_id, i),
sigs AS (
  SELECT wh.doc_id, pm.p, pm.band, pm.slot,
    MIN(CAST((wh.h::HUGEINT * pm.pa + pm.pb) % {U64} AS UBIGINT)) AS sig
  FROM wh CROSS JOIN perms pm GROUP BY wh.doc_id, pm.p, pm.band, pm.slot),
bandsig AS (
  SELECT doc_id, band, list(sig ORDER BY slot) AS s FROM sigs
  GROUP BY doc_id, band),
bh AS (
  SELECT doc_id, band,
    CAST(CASE WHEN {fold} >= {1 << 63}::UBIGINT
         THEN ({fold})::HUGEINT - {U64} ELSE ({fold})::HUGEINT END AS BIGINT) AS band_hash
  FROM bandsig),
sized AS (
  SELECT band, band_hash, count(*) AS n FROM bh GROUP BY band, band_hash),
ok AS (
  SELECT bh.* FROM bh JOIN sized USING (band, band_hash)
  WHERE sized.n >= 2 AND sized.n <= {max_bucket})
SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
FROM ok a JOIN ok b ON a.band = b.band AND a.band_hash = b.band_hash
WHERE a.doc_id < b.doc_id
"""


def lsh_cross_pairs_sql(mod: int = 50, num_perm: int = 64, bands: int = 16,
                        shingle: int = 8, max_bucket: int = 200) -> str:
    """Mirror of stages/dedup.py lsh_cross_pairs over the deterministic
    train/eval split (eval = doc_id % mod == 0): the full banded-LSH
    candidate SQL restricted to cross-side pairs, with the bucket-size
    valve counting BOTH sides (the union cut the engine applies)."""
    base = lsh_pairs_sql(num_perm=num_perm, bands=bands, shingle=shingle,
                         max_bucket=max_bucket)
    head, _final = base.rsplit("SELECT DISTINCT a.doc_id AS id_a", 1)
    return f"""{head.rstrip()}
SELECT DISTINCT
  CASE WHEN a.doc_id % {mod} <> 0 THEN a.doc_id ELSE b.doc_id END AS train_id,
  CASE WHEN a.doc_id % {mod} = 0 THEN a.doc_id ELSE b.doc_id END AS eval_id
FROM ok a JOIN ok b ON a.band = b.band AND a.band_hash = b.band_hash
WHERE a.doc_id < b.doc_id
  AND ((a.doc_id % {mod} = 0) <> (b.doc_id % {mod} = 0))
"""


def img_cte(n_images: int) -> str:
    """CTE ``img(i, w, h)``: the frame sizes of rows [0, n_images) of
    the synthetic image table (sources/images.py: w cycles 32/64/128
    with i % 3, h with (i // 3) % 3)."""
    return f"""img AS (
  SELECT i,
    CASE i % 3 WHEN 0 THEN 32 WHEN 1 THEN 64 ELSE 128 END AS w,
    CASE (i // 3) % 3 WHEN 0 THEN 32 WHEN 1 THEN 64 ELSE 128 END AS h
  FROM range({n_images}) t(i))"""


def pixels_sql(n_images: int) -> str:
    """CTEs ``img`` and ``px(i, w, h, r, c, v)``: every pixel of the
    synthetic grayscale frames, v = (r*h + c*w + i) % 256 -- the SQL
    pixel source of the image-operator oracles."""
    return f"""{img_cte(n_images)},
px AS (
  SELECT i, w, h, r.r AS r, c.c AS c, ((r.r * h + c.c * w + i) % 256) AS v
  FROM img,
  LATERAL (SELECT unnest(range(h)) AS r) r,
  LATERAL (SELECT unnest(range(w)) AS c) c)"""


def pcm_samples_sql(n_images: int, n_samples: str = "(w * h) // 2") -> str:
    """CTEs ``img``, ``s`` and ``sv(i, k, v)``: the first ``n_samples``
    s16le samples of each synthetic payload's pixel bytes (byte p of
    image i is ((p//w)*h + (p%w)*w + i) % 256, sample k = bytes 2k,
    2k+1) -- the SQL side of the PCM audio stages."""
    return f"""{img_cte(n_images)},
s AS (
  SELECT i, CAST(k.k AS BIGINT) AS k,
    (((2 * k.k) // w) * h + ((2 * k.k) % w) * w + i) % 256
      + 256 * ((((2 * k.k + 1) // w) * h + ((2 * k.k + 1) % w) * w + i) % 256)
      AS u
  FROM img, UNNEST(range({n_samples})) AS k(k)),
sv AS (SELECT i, k, CASE WHEN u >= 32768 THEN u - 65536 ELSE u END AS v
       FROM s)"""


def scene_blocks_sql(n_images: int, tiles: str) -> str:
    """CTEs ``img``, ``px`` and ``blk(tile, i, gr, gc, m)``: the exact
    8x8 block means (block sum // block pixels) of every synthetic
    scene, joined to its tile through the image->tile table ``tiles``
    (the pinned lookup golden) -- the SQL side of the tile-composite
    stages (stages/mosaic.py, stages/temporal.py).  Same pixel formula
    as :func:`pixels_sql`, but the join runs before the pixel expansion:
    joining the expanded ``px`` instead gives identical results 1.5-2.4x
    slower in DuckDB."""
    return f"""{img_cte(n_images)},
px AS (
  SELECT a.tile, im.i AS i, (im.h // 8) * (im.w // 8) AS bpx,
         r.r // (im.h // 8) AS gr, c.c // (im.w // 8) AS gc,
         ((r.r * im.h + c.c * im.w + im.i) % 256) AS v
  FROM img im
  JOIN {tiles} a ON a.i = im.i,
  LATERAL (SELECT unnest(range(im.h)) AS r) r,
  LATERAL (SELECT unnest(range(im.w)) AS c) c),
blk AS (
  SELECT tile, i, gr, gc, sum(v) // any_value(bpx) AS m
  FROM px GROUP BY tile, i, gr, gc)"""


def lattice_cte(src: str, cols: str = "tile") -> str:
    """CTE ``par``: ``cols`` of ``src`` plus each tile's lattice point
    decoded from the fixed-width ``CC_E###{N|S}###T#`` name --
    continent ``ck``, easting ``te`` and SIGNED northing ``tn`` (S
    tiles negative), both in 100 km units."""
    return f"""par AS (
  SELECT {cols}, substr(tile, 1, 2) AS ck,
         CAST(substr(tile, 5, 3) AS BIGINT) AS te,
         CASE WHEN substr(tile, 8, 1) = 'S'
              THEN -CAST(substr(tile, 9, 3) AS BIGINT)
              ELSE CAST(substr(tile, 9, 3) AS BIGINT) END AS tn
  FROM {src})"""


def _neighbour_cell(c: str, o: str) -> str:
    """Columns ``se, sn, sgr, sgc``: the lattice point and cell of the
    8x8 composite cell at offset (``o``.dr, ``o``.dc) from cell ``c``,
    wrapping into the +/-6 easting / northing neighbour tile (gr is
    south-positive)."""
    return f"""{c}.te + CASE WHEN {c}.gc + {o}.dc < 0 THEN -6
                WHEN {c}.gc + {o}.dc > 7 THEN 6 ELSE 0 END AS se,
    {c}.tn + CASE WHEN {c}.gr + {o}.dr < 0 THEN 6
                WHEN {c}.gr + {o}.dr > 7 THEN -6 ELSE 0 END AS sn,
    (({c}.gr + {o}.dr) % 8 + 8) % 8 AS sgr,
    (({c}.gc + {o}.dc) % 8 + 8) % 8 AS sgc"""


def mosaic_gather_ctes(offsets, codes=None) -> str:
    """CTEs ``mos`` (the 8x8 max composite of ``blk``), ``par`` (its
    lattice points), ``dirs(dr, dc, code)`` and ``g`` / ``j``: every
    composite cell (tile, gr, gc, value ``vc``) joined with the value
    ``v`` of its neighbour at each (dr, dc) of ``offsets`` that exists
    -- the SQL halo exchange of the mosaic stencil operators.  ``code``
    labels each offset (default: its position)."""
    codes = range(len(offsets)) if codes is None else codes
    values = ", ".join(f"({dr}, {dc}, {k})"
                       for (dr, dc), k in zip(offsets, codes))
    return f"""mos AS (
  SELECT tile, CAST(gr AS INT) AS gr, CAST(gc AS INT) AS gc,
         max(m)::BIGINT AS v
  FROM blk GROUP BY tile, gr, gc),
{lattice_cte("mos", "tile, gr, gc, v")},
dirs AS (SELECT * FROM (VALUES {values}) o(dr, dc, code)),
g AS (
  SELECT c.tile, c.gr, c.gc, c.ck, c.v AS vc, o.dr, o.dc, o.code,
    {_neighbour_cell("c", "o")}
  FROM par c, dirs o),
j AS (
  SELECT g.tile, g.gr, g.gc, g.vc, g.dr, g.dc, g.code, s.v
  FROM g JOIN par s ON s.ck = g.ck AND s.te = g.se AND s.tn = g.sn
                   AND s.gr = g.sgr AND s.gc = g.sgc)"""


def gradient_ctes() -> str:
    """:func:`mosaic_gather_ctes` over the 4 rook offsets, then
    ``grad(tile, gr, gc, gx, gy)``: central differences gx = v(east) -
    v(west), gy = v(south) - v(north) of every cell with all four
    neighbours."""
    return f"""{mosaic_gather_ctes([(0, 1), (0, -1), (1, 0), (-1, 0)])},
piv AS (
  SELECT tile, gr, gc,
    max(CASE WHEN dr = 0 AND dc = 1 THEN v END) AS ve,
    max(CASE WHEN dr = 0 AND dc = -1 THEN v END) AS vw,
    max(CASE WHEN dr = 1 THEN v END) AS vs,
    max(CASE WHEN dr = -1 THEN v END) AS vn
  FROM j GROUP BY tile, gr, gc),
grad AS (
  SELECT tile, gr, gc, ve - vw AS gx, vs - vn AS gy
  FROM piv
  WHERE ve IS NOT NULL AND vw IS NOT NULL
    AND vs IS NOT NULL AND vn IS NOT NULL)"""


#: D8 directions in priority order (ties pick the earliest): (dr, dc,
#: ESRI code, pivot column) with gr south-positive
_D8 = ((0, 1, 1, "ve"), (1, 1, 2, "vse"), (1, 0, 4, "vs"),
       (1, -1, 8, "vsw"), (0, -1, 16, "vw"), (-1, -1, 32, "vnw"),
       (-1, 0, 64, "vn"), (-1, 1, 128, "vne"))


def d8_ctes() -> str:
    """:func:`mosaic_gather_ctes` over the 8 D8 offsets (code = ESRI
    code), then ``sc(tile, gr, gc, vc, best, code)`` for every cell
    with all 8 neighbours: the steepest drop ``best`` and the code of
    the first direction reaching it (0 when no neighbour is lower)."""
    gather = mosaic_gather_ctes([(dr, dc) for dr, dc, _, _ in _D8],
                                [k for _, _, k, _ in _D8])
    pivot = ",\n".join(f"    max(CASE WHEN code = {k} THEN v END) AS {col}"
                       for _, _, k, col in _D8)
    drops = ", ".join(f"vc - {col}" for *_, col in _D8)
    first = "\n".join(f"         WHEN vc - {col} = best THEN {k}"
                      for _, _, k, col in _D8[:-1])
    return f"""{gather},
piv AS (
  SELECT tile, gr, gc, any_value(vc) AS vc,
{pivot}
  FROM j GROUP BY tile, gr, gc HAVING count(*) = 8),
best AS (SELECT *, greatest({drops}) AS best FROM piv),
sc AS (
  SELECT tile, gr, gc, vc, best,
    CASE WHEN best <= 0 THEN 0
{first}
         ELSE {_D8[-1][2]} END AS code
  FROM best)"""


def d8_flow_ctes() -> str:
    """:func:`d8_ctes`, then ``d8(tile, gr, gc, v, ck, te, tn, code)``
    (each interior cell on the lattice) and ``flow(tile, gr, gc, dtile,
    dgr, dgc)``: the D8 edge to the steepest-drop neighbour where that
    neighbour is itself interior."""
    return f"""{d8_ctes()},
d8 AS (
  SELECT p.tile, p.gr, p.gc, p.vc AS v, r.ck, r.te, r.tn, p.code
  FROM sc p
  JOIN par r ON r.tile = p.tile AND r.gr = p.gr AND r.gc = p.gc),
flow AS (
  SELECT f.tile, f.gr, f.gc, i.tile AS dtile, i.gr AS dgr, i.gc AS dgc
  FROM (SELECT d.tile, d.gr, d.gc, d.ck,
          {_neighbour_cell("d", "o")}
        FROM d8 d JOIN dirs o ON o.code = d.code) f
  JOIN d8 i ON i.ck = f.ck AND i.te = f.se AND i.tn = f.sn
           AND i.gr = f.sgr AND i.gc = f.sgc)"""


def poly_cells_ctes(blocks: str) -> str:
    """After the scene-block CTEs ``blocks``: ``mos``, ``cell(cpx, cpy,
    v)`` (the EU northern-hemisphere composite cells as 75 km cell
    centers in projected metres from the tile's lattice point), the
    16-octagon layer ``p`` / ``d`` / ``vert`` / ``edge``, the exact
    ray-casting crossings ``crs`` and ``hit(poly_id, cpx, cpy)``: the
    cells inside each polygon (odd crossing parity)."""
    return f"""{blocks},
mos AS (
  SELECT tile, gr, gc, max(m)::BIGINT AS v
  FROM blk GROUP BY tile, gr, gc),
cell AS (
  SELECT CAST(substr(tile, 5, 3) AS BIGINT) * 100000
           + gc * 75000 + 37500 AS cpx,
         CAST(substr(tile, 9, 3) AS BIGINT) * 100000
           + 562500 - gr * 75000 AS cpy, v
  FROM mos
  WHERE substr(tile, 1, 2) = 'EU' AND substr(tile, 8, 1) = 'N'),
p AS (
  SELECT k AS poly_id, (k * 977003) % 7000000 AS cx,
         (k * 1409009) % 5500000 AS cy,
         150000 + (k * 13001) % 450000 AS r
  FROM range(16) t(k)),
d(v, dx, dy) AS (VALUES (0, 2, 0), (1, 1, 1), (2, 0, 2), (3, -1, 1),
                        (4, -2, 0), (5, -1, -1), (6, 0, -2), (7, 1, -1)),
vert AS (SELECT poly_id, v, cx + r * dx AS vx, cy + r * dy AS vy
         FROM p, d),
edge AS (
  SELECT a.poly_id, a.vx AS x1, a.vy AS y1, b.vx AS x2, b.vy AS y2
  FROM vert a JOIN vert b
    ON b.poly_id = a.poly_id AND b.v = (a.v + 1) % 8),
crs AS (
  SELECT e.poly_id, c.cpx, c.cpy
  FROM edge e JOIN cell c
    ON ((e.y1 > c.cpy) <> (e.y2 > c.cpy))
   AND (CASE WHEN e.y2 > e.y1
        THEN (e.x2 - e.x1) * (c.cpy - e.y1)
             - (c.cpx - e.x1) * (e.y2 - e.y1) > 0
        ELSE (e.x2 - e.x1) * (c.cpy - e.y1)
             - (c.cpx - e.x1) * (e.y2 - e.y1) < 0 END)),
hit AS (SELECT poly_id, cpx, cpy FROM crs
        GROUP BY poly_id, cpx, cpy HAVING count(*) % 2 = 1)"""

def image_stats_sql(n_images: int = 500) -> str:
    """Mirror of sources/images.py make_batch + DecodeImages px_mean:
    pixel (r, c) of image i is ((r*h + c*w + i) % 256); DuckDB avg over
    integers and numpy uint8 mean are both exact-rational sum/count in
    float64, verified bit-identical."""
    return f"""
WITH {pixels_sql(n_images)}
SELECT printf('img%012d', i) AS image_id, avg(v) AS px_mean
FROM px GROUP BY i
"""


def image_stats_rgb_sql(n_images: int = 300) -> str:
    """Mirror of sources/images.py make_rgb_batch + DecodeImages
    px_mean: pixel (band, r, c) of image i is
    ((r*h + c*w + i + 85*band) % 256); the mean runs over all three
    channels (integer sum exact in float64)."""
    return f"""
WITH {img_cte(n_images)},
px AS (
  SELECT i, ((r.r * h + c.c * w + i + 85 * b.b) % 256) AS v
  FROM img,
  LATERAL (SELECT unnest(range(h)) AS r) r,
  LATERAL (SELECT unnest(range(w)) AS c) c,
  LATERAL (SELECT unnest(range(3)) AS b) b)
SELECT printf('rgb%012d', i) AS image_id, avg(v) AS px_mean
FROM px GROUP BY i
"""


def image_stats_pal_sql(n_images: int = 300) -> str:
    """Mirror of sources/images.py make_pal_batch + DecodeImages
    px_mean: index (r, c) of image i is ((r*h + c*w + i) % PAL_K) and
    the pixel is the 3-channel palette entry -- the mean runs over the
    palette-expanded RGB values (integer sum exact in float64)."""
    from equi7grid_ray.sources.images import PAL_K, pal_palette

    pal = pal_palette().astype(np.int64)
    rows = ", ".join(f"({j}, {int(s)})" for j, s in enumerate(pal.sum(axis=1)))
    return f"""
WITH {pixels_sql(n_images)},
pal(j, s3) AS (VALUES {rows})
SELECT printf('pal%012d', i) AS image_id,
       sum(p.s3)::DOUBLE / (3 * count(*)) AS px_mean
FROM px JOIN pal p ON p.j = px.v % {PAL_K} GROUP BY i
"""


def audio_pcm_sql(n_images: int = 500) -> str:
    """Mirror of stages/multimodal.py:PCMAudioFeatures over the
    synthetic payload table: pixel byte p of image i is
    ((p//w)*h + (p%w)*w + i) % 256; sample k = s16le(bytes 2k, 2k+1);
    features are pure integer aggregates (energy, zero crossings,
    peak)."""
    return f"""
WITH {pcm_samples_sql(n_images)},
zc0 AS (
  SELECT i, CASE WHEN (v < 0) <>
      (lead(v) OVER (PARTITION BY i ORDER BY k) < 0)
      THEN 1 ELSE 0 END AS f
  FROM sv),
zc AS (SELECT i, CAST(SUM(f) AS BIGINT) AS zcr FROM zc0 GROUP BY i)
SELECT printf('img%012d', sv.i) AS image_id,
  count(*) AS n_samples,
  CAST(sum(v * v) AS BIGINT) AS sum_sq,
  any_value(zc.zcr) AS zcr,
  CAST(max(abs(v)) AS BIGINT) AS peak
FROM sv JOIN zc ON zc.i = sv.i GROUP BY sv.i
"""


def _dhash_ctes(n_images: int) -> str:
    """CTE chain regenerating stages/multimodal.py DHashImages: the
    synthetic pixel at (r, c) of image i is ((r*h + c*w + i) % 256);
    dHash point-samples a 9x8 grid (row r*h//8, col c*w//9) and sets bit
    k = r*8 + c (MSB-first) when grid[r, c+1] > grid[r, c].  Pure
    integer math on both sides -- bit-exact."""
    return f"""
{img_cte(n_images)},
grid AS (
  SELECT i, r.r AS r, c.c AS c,
    ((((r.r * h) // 8) * h + ((c.c * w) // 9) * w + i) % 256) AS v
  FROM img,
  LATERAL (SELECT unnest(range(8)) AS r) r,
  LATERAL (SELECT unnest(range(9)) AS c) c),
bits AS (
  SELECT a.i AS i, a.r * 8 + a.c AS k,
         CASE WHEN b.v > a.v THEN 1 ELSE 0 END AS bit
  FROM grid a JOIN grid b ON b.i = a.i AND b.r = a.r AND b.c = a.c + 1
  WHERE a.c < 8),
dh AS (
  SELECT i, (CASE WHEN u >= {1 << 63}::HUGEINT
             THEN u - {U64}::HUGEINT ELSE u END)::BIGINT AS dhash
  FROM (SELECT i, sum(bit * (1::HUGEINT << (63 - k))) AS u
        FROM bits GROUP BY i))"""


def image_dhash_sql(n_images: int = 500) -> str:
    """Mirror of the DHashImages stage output (image_id, dhash)."""
    return (f"WITH {_dhash_ctes(n_images)} "
            "SELECT printf('img%012d', i) AS image_id, dhash FROM dh")


def image_dhash_pairs_sql(n_images: int = 500, max_dist: int = 3) -> str:
    """O(n^2) brute-force mirror of dhash_near_dup: every pair within
    Hamming distance ``max_dist``.  The engine's banded pre-filter is
    EXACT for max_dist <= 3 (pigeonhole over 4 16-bit bands), so the
    two pair sets must be identical, not merely overlapping."""
    return f"""
WITH {_dhash_ctes(n_images)}
SELECT printf('img%012d', a.i) AS id_a, printf('img%012d', b.i) AS id_b
FROM dh a JOIN dh b ON a.i < b.i
WHERE bit_count(xor(a.dhash, b.dhash)) <= {max_dist}
"""


def image_ahash_sql(n_images: int = 500) -> str:
    """Mirror of the AHashImages stage: 8x8 point-sampled grid (row
    r*h//8, col c*w//8), bit k = r*8 + c (MSB-first) set when
    64*v > sum(grid) -- the integer-exact mean compare, so both sides
    compute identical bits."""
    return (f"WITH {img_cte(n_images)},{_ahash_ctes()} "
            "SELECT printf('img%012d', i) AS image_id, ahash FROM ah")


def image_phash_sql(n_images: int = 300) -> str:
    """Mirror of the PHashImages stage: 16x16 point-sampled grid ->
    integer 2-D DCT-II with the SAME Q14 basis
    (stages.multimodal.phash_basis) -> 8x8 low-frequency block minus DC
    (63 int64 coefficients) -> bit j = coeff_j > quantile_disc(0.5)
    (the 32nd order statistic, identical to numpy partition[31]).
    Factored row/column transform keeps the join fanout at
    256 + 8*16 + 64 rows per image."""
    from equi7grid_ray.stages.multimodal import phash_basis

    B = phash_basis()
    basis = ", ".join(
        f"({u}, {k}, {int(B[u, k])})" for u in range(16) for k in range(16))
    return f"""
WITH {img_cte(n_images)},
basis(u, k, b) AS (VALUES {basis}),
grid AS (
  SELECT i, r.r AS r, c.c AS c,
    ((((r.r * h) // 16) * h + ((c.c * w) // 16) * w + i) % 256) AS v
  FROM img,
  LATERAL (SELECT unnest(range(16)) AS r) r,
  LATERAL (SELECT unnest(range(16)) AS c) c),
rowt AS (
  SELECT g.i AS i, bu.u AS u, g.c AS c, sum(g.v * bu.b) AS t
  FROM grid g JOIN basis bu ON bu.k = g.r
  WHERE bu.u < 8 GROUP BY g.i, bu.u, g.c),
coeff AS (
  SELECT rt.i AS i, rt.u AS u, bv.u AS v, sum(rt.t * bv.b) AS cf
  FROM rowt rt JOIN basis bv ON bv.k = rt.c
  WHERE bv.u < 8 GROUP BY rt.i, rt.u, bv.u),
med AS (
  SELECT i, quantile_disc(cf, 0.5) AS m FROM coeff
  WHERE NOT (u = 0 AND v = 0) GROUP BY i),
ph AS (
  SELECT i, (CASE WHEN s >= {1 << 63}::HUGEINT
             THEN s - {U64}::HUGEINT ELSE s END)::BIGINT AS phash_dct
  FROM (SELECT c.i AS i,
               sum(CASE WHEN c.cf > med.m THEN 1 ELSE 0 END
                   * (1::HUGEINT << (63 - (c.u * 8 + c.v - 1)))) AS s
        FROM coeff c JOIN med ON med.i = c.i
        WHERE NOT (c.u = 0 AND c.v = 0) GROUP BY c.i))
SELECT printf('img%012d', i) AS image_id, phash_dct FROM ph"""


def _ahash_ctes() -> str:
    """CTE chain regenerating AHashImages (8x8 grid, integer mean
    compare) over ``img`` ending in ``ah(i, ahash)`` -- shared by the
    aHash mirror and the ensemble-dedup oracle."""
    return f"""
agrid AS (
  SELECT i, r.r AS r, c.c AS c,
    ((((r.r * h) // 8) * h + ((c.c * w) // 8) * w + i) % 256) AS v
  FROM img,
  LATERAL (SELECT unnest(range(8)) AS r) r,
  LATERAL (SELECT unnest(range(8)) AS c) c),
atot AS (SELECT i, sum(v) AS s FROM agrid GROUP BY i),
ah AS (
  SELECT i, (CASE WHEN u >= {1 << 63}::HUGEINT
             THEN u - {U64}::HUGEINT ELSE u END)::BIGINT AS ahash
  FROM (SELECT g.i AS i,
               sum(CASE WHEN 64 * g.v > t.s THEN 1 ELSE 0 END
                   * (1::HUGEINT << (63 - (g.r * 8 + g.c)))) AS u
        FROM agrid g JOIN atot t ON t.i = g.i GROUP BY g.i))"""


def image_ensemble_canonical_sql(n_images: int = 500,
                                 max_dist: int = 3) -> str:
    """Mirror of multimodal.image_ensemble_canonical_ids: connected
    components over the UNION of the brute-force dHash and aHash pair
    graphs (multi-signal dedup: either perceptual hash matching merges
    the images), LEFT JOINed onto the full image range."""
    return f"""
WITH RECURSIVE {_dhash_ctes(n_images)},
{_ahash_ctes().lstrip()},
pairs AS (
  SELECT a.i AS id_a, b.i AS id_b
  FROM dh a JOIN dh b ON a.i < b.i
  WHERE bit_count(xor(a.dhash, b.dhash)) <= {max_dist}
  UNION
  SELECT a.i AS id_a, b.i AS id_b
  FROM ah a JOIN ah b ON a.i < b.i
  WHERE bit_count(xor(a.ahash, b.ahash)) <= {max_dist}),
edges AS (
  SELECT id_a AS u, id_b AS v FROM pairs
  UNION ALL SELECT id_b AS u, id_a AS v FROM pairs),
reach(node, r) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.u, reach.r FROM edges e JOIN reach ON reach.node = e.v),
comp AS (SELECT node, MIN(r) AS component FROM reach GROUP BY node)
SELECT printf('img%012d', t.i) AS image_id,
       printf('img%012d', COALESCE(c.component, t.i)) AS canonical
FROM range({n_images}) t(i) LEFT JOIN comp c ON c.node = t.i"""


def image_canonical_sql(n_images: int = 500, max_dist: int = 3) -> str:
    """Mirror of multimodal.image_canonical_ids: connected components
    (recursive-CTE reachability -- fine at oracle scale) over the
    brute-force dHash pair graph, LEFT JOINed back onto the full image
    range so isolated images stay their own canonical."""
    return f"""
WITH RECURSIVE {_dhash_ctes(n_images)},
pairs AS (
  SELECT a.i AS id_a, b.i AS id_b
  FROM dh a JOIN dh b ON a.i < b.i
  WHERE bit_count(xor(a.dhash, b.dhash)) <= {max_dist}),
edges AS (
  SELECT id_a AS u, id_b AS v FROM pairs
  UNION ALL SELECT id_b AS u, id_a AS v FROM pairs),
reach(node, r) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.u, reach.r FROM edges e JOIN reach ON reach.node = e.v),
comp AS (SELECT node, MIN(r) AS component FROM reach GROUP BY node)
SELECT printf('img%012d', t.i) AS image_id,
       printf('img%012d', COALESCE(c.component, t.i)) AS canonical
FROM range({n_images}) t(i) LEFT JOIN comp c ON c.node = t.i"""


def frame_sample_sql(n_videos: int = 100, every: int = 5, n_frames: int = 20) -> str:
    """Mirror of stages/multimodal.py FrameSampler group-count: the fake
    demux emits frame indices range(0, n_frames, every) for every video,
    so each sampled index appears exactly n_videos times."""
    return (
        f"SELECT CAST({every} * k AS BIGINT) AS frame_index, "
        f"CAST({n_videos} AS BIGINT) AS n "
        f"FROM range({(n_frames + every - 1) // every}) t(k)"
    )


def _plane_literals(dim: int, n_planes: int, seed: int = 42) -> np.ndarray:
    """The SAME hyperplane matrix HyperplaneLSH(dim, n_planes, seed)
    draws (rng.standard_normal((dim, n_planes)))."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, n_planes))


def ann_lsh_buckets_sql(dim: int = 64, n_planes: int = 8, seed: int = 42) -> str:
    """Mirror of stages/similarity.py HyperplaneLSH bucket histogram:
    bucket bit j (MSB-first) = sign of dot(embedding, plane_j).  Both
    sides compute the dot in float64; the corpus' minimum |dot| margin
    (~3e-4) is far above summation-order ulps."""
    planes = _plane_literals(dim, n_planes, seed)
    exprs = []
    for j in range(n_planes):
        lits = ", ".join(repr(v) for v in planes[:, j])
        exprs.append(
            f"(CASE WHEN list_dot_product(embedding::DOUBLE[], [{lits}]) > 0 "
            f"THEN {1 << (n_planes - 1 - j)} ELSE 0 END)"
        )
    return (
        f"SELECT ({' + '.join(exprs)})::BIGINT AS bucket, count(*) AS n "
        "FROM embeddings GROUP BY bucket"
    )


def _centroid_values(cent: np.ndarray) -> str:
    rows = []
    for i, c in enumerate(cent):
        lits = ", ".join(repr(float(v)) for v in c)
        rows.append(f"({i}, [{lits}]::DOUBLE[])")
    return ", ".join(rows)


def ivf_topk_sql(cent: np.ndarray, n_probe: int = 6, k: int = 10,
                 query_vec_id: int = 0) -> str:
    """Mirror of stages/ann_ivf.py with a FIXED (data-independent)
    centroid matrix: assign each vector to its argmax-dot centroid
    (first index wins ties, like np.argmax), probe the query's n_probe
    closest lists, exact cosine over members, global top-k by
    (cosine DESC, vec_id)."""
    return f"""
WITH cent(cid, c) AS (VALUES {_centroid_values(cent)}),
qn AS (
  SELECT list_transform(embedding::DOUBLE[],
         x -> x / sqrt(list_dot_product(embedding::DOUBLE[], embedding::DOUBLE[]))) AS q
  FROM embeddings WHERE vec_id = {query_vec_id}),
en AS (
  SELECT vec_id, list_transform(embedding::DOUBLE[],
         x -> x / sqrt(list_dot_product(embedding::DOUBLE[], embedding::DOUBLE[]))) AS e
  FROM embeddings),
assign AS (
  SELECT vec_id, e, cid,
    row_number() OVER (PARTITION BY vec_id
                       ORDER BY list_dot_product(e, c) DESC, cid) AS rk
  FROM en CROSS JOIN cent),
lists AS (SELECT vec_id, e, cid AS ivf_list FROM assign WHERE rk = 1),
probed AS (
  SELECT cid FROM cent, qn ORDER BY list_dot_product(qn.q, c) DESC, cid
  LIMIT {n_probe})
SELECT vec_id FROM (
  SELECT l.vec_id, list_dot_product(l.e, qn.q) AS cosine
  FROM lists l JOIN probed p ON l.ivf_list = p.cid, qn
  ORDER BY cosine DESC, l.vec_id LIMIT {k})
"""


def embedding_near_dup_sql(dim: int = 64, bands: int = 8, r: int = 4,
                           threshold: float = 0.4, max_bucket: int = 500,
                           seed: int = 42) -> str:
    """Mirror of stages/similarity.py embedding_near_dup_pairs: banded
    hyperplane buckets (same seeded plane draw as BandedLSH) -> bucket
    co-occupant pairs (size-capped) -> exact-cosine >= threshold ->
    distinct (id_a, id_b).  The corpus margin at the threshold (~1e-4)
    dwarfs float64 summation-order ulps."""
    planes = _plane_literals(dim, bands * r, seed)

    def bucket_expr(b: int) -> str:
        terms = []
        for j in range(r):
            lits = ", ".join(repr(v) for v in planes[:, b * r + j])
            terms.append(
                f"(CASE WHEN list_dot_product(embedding::DOUBLE[], [{lits}]) > 0 "
                f"THEN {1 << (r - 1 - j)} ELSE 0 END)"
            )
        return " + ".join(terms)

    sigs = " UNION ALL ".join(
        f"SELECT vec_id, {b} AS band, ({bucket_expr(b)})::BIGINT AS bucket "
        "FROM embeddings"
        for b in range(bands)
    )
    return f"""
WITH sig AS ({sigs}),
sized AS (SELECT band, bucket, count(*) AS n FROM sig GROUP BY band, bucket),
ok AS (
  SELECT sig.* FROM sig JOIN sized USING (band, bucket)
  WHERE sized.n >= 2 AND sized.n <= {max_bucket}),
cand AS (
  SELECT DISTINCT a.vec_id AS id_a, b.vec_id AS id_b
  FROM ok a JOIN ok b ON a.band = b.band AND a.bucket = b.bucket
  WHERE a.vec_id < b.vec_id),
en AS (
  SELECT vec_id, list_transform(embedding::DOUBLE[],
         x -> x / sqrt(list_dot_product(embedding::DOUBLE[], embedding::DOUBLE[]))) AS e
  FROM embeddings)
SELECT id_a, id_b FROM cand
JOIN en ea ON ea.vec_id = cand.id_a
JOIN en eb ON eb.vec_id = cand.id_b
WHERE list_dot_product(ea.e, eb.e) >= {threshold!r}
"""


def regrid_equi7_sql(n_img: int = 200, w: int = 64, h: int = 64,
                     res: int = 1000, s: int = 500, tile: int = 600_000,
                     xmod: int = 8_640_000, ymod: int = 6_000_000,
                     xmul: int = 97_003, ymul: int = 53_003) -> str:
    """Mirror of q_regrid_equi7: synthetic int16 rasters at derived
    projected centers (quarter-pixel offset keeps gather coordinates off
    the .5 rounding boundary, so DuckDB round() and numpy rint agree),
    grid floor-sweep pairs, RegridStage's affine window math and nearest
    gather, per-tile (n_windows, px_sum, n_valid)."""
    half = w * res // 2
    npix = tile // s
    return f"""
WITH img AS (
  SELECT i, ((i * {xmul}) % {xmod}) + 125.0 AS cx,
            ((i * {ymul}) % {ymod}) + 125.0 AS cy
  FROM range({n_img}) t(i)),
pairs AS (
  SELECT i, cx, cy, tx.a AS tx, ty.b AS ty,
         tx.a * {tile} AS llx, ty.b * {tile} AS lly
  FROM img,
  UNNEST(range(CAST(floor(greatest(cx - {half}, 0.0) / {tile}) AS BIGINT),
               CAST(floor(least(cx + {half}, {xmod - 1}.0) / {tile}) AS BIGINT) + 1)) AS tx(a),
  UNNEST(range(CAST(floor(greatest(cy - {half}, 0.0) / {tile}) AS BIGINT),
               CAST(floor(least(cy + {half}, {ymod - 1}.0) / {tile}) AS BIGINT) + 1)) AS ty(b)),
win AS (
  SELECT i, cx, cy, tx, ty, llx, lly,
    greatest(0, CAST(floor((greatest(cx - {half}, llx) - llx) / {s}) AS BIGINT)) AS c0,
    least({npix}, CAST(ceil((least(cx + {half}, llx + {tile}) - llx) / {s}) AS BIGINT)) AS c1,
    greatest(0, CAST(floor((lly + {tile} - least(cy + {half}, lly + {tile})) / {s}) AS BIGINT)) AS r0,
    least({npix}, CAST(ceil((lly + {tile} - greatest(cy - {half}, lly)) / {s}) AS BIGINT)) AS r1
  FROM pairs),
px AS (
  SELECT win.i, win.tx, win.ty,
    round((win.llx + (win.c0 + cc.c + 0.5) * {s} - win.cx) / {res} + {w / 2} - 0.5) AS ui,
    round((win.cy - (win.lly + {tile} - (win.r0 + rr.r + 0.5) * {s})) / {res} + {h / 2} - 0.5) AS vi
  FROM win,
  UNNEST(range(greatest(0, win.r1 - win.r0))) AS rr(r),
  UNNEST(range(greatest(0, win.c1 - win.c0))) AS cc(c)),
vals AS (
  SELECT i, tx, ty,
    CASE WHEN ui >= 0 AND ui < {w} AND vi >= 0 AND vi < {h}
         THEN CAST((vi * 131 + ui * 17 + i * 7) % 5003 - 2500 AS BIGINT)
         ELSE NULL END AS v
  FROM px),
per_pair AS (
  SELECT w2.i, w2.tx, w2.ty,
    COALESCE(SUM(v.v), 0) AS px_sum, COUNT(v.v) AS n_valid
  FROM win w2 LEFT JOIN vals v ON v.i = w2.i AND v.tx = w2.tx AND v.ty = w2.ty
  GROUP BY w2.i, w2.tx, w2.ty)
SELECT printf('GR_E%03dN%03dT6', tx * 6, ty * 6) AS tile,
  count(*) AS n_windows,
  CAST(SUM(px_sum) AS BIGINT) AS px_sum,
  CAST(SUM(n_valid) AS BIGINT) AS n_valid
FROM per_pair GROUP BY tile
"""


def lsh_verified_pairs_sql(threshold: float = 0.8, n: int = 3,
                           num_perm: int = 64, bands: int = 16,
                           shingle: int = 8, max_bucket: int = 200) -> str:
    """Mirror of stages/dedup.py verified_near_dup_pairs: the full LSH
    candidate SQL (lsh_pairs_sql) extended with exact distinct-n-gram
    Jaccard verification >= threshold.  The corpus' candidate Jaccard
    distribution is bimodal (0.67 | 0.93 gap), so the 0.8 threshold has
    a huge float margin.  ``cand`` and ``grams`` are MATERIALIZED: DuckDB
    otherwise inlines each at all three of its references."""
    base = lsh_pairs_sql(num_perm=num_perm, bands=bands, shingle=shingle,
                         max_bucket=max_bucket)
    head, final = base.rsplit("SELECT DISTINCT a.doc_id AS id_a", 1)
    cand_select = "SELECT DISTINCT a.doc_id AS id_a" + final
    return f"""{head.rstrip()},
cand AS MATERIALIZED ({cand_select}),
cids AS (
  SELECT DISTINCT id FROM (
    SELECT id_a AS id FROM cand UNION ALL SELECT id_b FROM cand)),
grams AS MATERIALIZED (
  SELECT DISTINCT d.doc_id, substring(d.text, CAST(i AS INT), {n}) AS gm
  FROM documents d JOIN cids ON cids.id = d.doc_id,
  UNNEST(range(1, greatest(length(d.text) - {n} + 2, 2))) AS r(i)),
gcnt AS (SELECT doc_id, count(*) AS ng FROM grams GROUP BY doc_id),
inter AS (
  SELECT c.id_a, c.id_b, count(*) AS ni
  FROM cand c
  JOIN grams ga ON ga.doc_id = c.id_a
  JOIN grams gb ON gb.doc_id = c.id_b AND gb.gm = ga.gm
  GROUP BY c.id_a, c.id_b)
SELECT c.id_a, c.id_b FROM cand c
JOIN gcnt na ON na.doc_id = c.id_a
JOIN gcnt nb ON nb.doc_id = c.id_b
LEFT JOIN inter i ON i.id_a = c.id_a AND i.id_b = c.id_b
WHERE CAST(COALESCE(i.ni, 0) AS DOUBLE)
      / (na.ng + nb.ng - COALESCE(i.ni, 0)) >= {threshold!r}
"""


def video_frames_sql(n_images: int = 200, every: int = 5) -> str:
    """Mirror of stages/multimodal.py:RawVideoFrames over the synthetic
    payload table: pixel (r, c) of image i is (r*h + c*w + i) % 256;
    frame f = row f of the planar stream; every-th frames' integer
    luma stats."""
    return f"""
WITH {img_cte(n_images)},
px AS (
  SELECT i, p.p // w AS f,
    ((p.p // w) * h + (p.p % w) * w + i) % 256 AS v
  FROM img, UNNEST(range(w * h)) AS p(p)
  WHERE (p.p // w) % {every} = 0)
SELECT printf('img%012d', i) AS image_id,
  CAST(f AS INTEGER) AS frame_index,
  CAST(sum(v) AS BIGINT) AS y_sum,
  CAST(min(v) AS BIGINT) AS y_min,
  CAST(max(v) AS BIGINT) AS y_max
FROM px GROUP BY i, f
"""


def contamination_sql(n_bench: int = 20, k: int = 8) -> str:
    """Mirror of stages/dedup.py:flag_contaminated over ``documents``
    with benchmark = the first ``n_bench`` doc_ids: the SAME Horner
    char-k-gram hashes on both sides (hash equality == string equality
    by construction of the mirror), corpus docs flagged on any overlap.
    Output (doc_id BIGINT, contaminated TINYINT) for doc_id >=
    n_bench."""
    hp = [pow(int(_PRIME), k - 1 - j, U64) for j in range(k)]
    horner_rows = ", ".join(f"({j}, {hp[j]}::UBIGINT)" for j in range(k))
    return f"""
WITH hp(j, pw) AS (VALUES {horner_rows}),
docs AS (SELECT doc_id, text FROM documents WHERE length(text) >= {k}),
wins AS (
  SELECT doc_id, CAST(i AS INT) AS i
  FROM docs, UNNEST(range(1, length(text) - {k} + 2)) AS r(i)),
wh AS (
  SELECT w.doc_id, w.i,
    CAST(SUM((ascii(substring(d.text, w.i + hp.j, 1))::HUGEINT * hp.pw)
             % {U64}) % {U64} AS UBIGINT) AS h
  FROM wins w JOIN docs d USING (doc_id) CROSS JOIN hp
  GROUP BY w.doc_id, w.i),
bench AS (SELECT DISTINCT h FROM wh WHERE doc_id < {n_bench}),
hits AS (SELECT DISTINCT c.doc_id FROM wh c JOIN bench b USING (h)
         WHERE c.doc_id >= {n_bench})
SELECT d.doc_id,
  CAST(CASE WHEN h.doc_id IS NULL THEN 0 ELSE 1 END AS TINYINT)
    AS contaminated
FROM documents d LEFT JOIN hits h USING (doc_id)
WHERE d.doc_id >= {n_bench}"""


def _reach_ctes(num_perm: int, bands: int, shingle: int, max_bucket: int) -> str:
    """``WITH RECURSIVE pairs, edges, reach(node, r)``: each node of the
    MinHash-LSH pair graph with every node it reaches.  ``pairs`` and
    ``edges`` are MATERIALIZED: DuckDB otherwise inlines a CTE at each
    reference, so the whole pair query would re-run for every use of
    ``pairs``."""
    inner = lsh_pairs_sql(num_perm, bands, shingle, max_bucket)
    return f"""WITH RECURSIVE pairs AS MATERIALIZED (SELECT * FROM ({inner}) lsh),
edges AS MATERIALIZED (
  SELECT id_a AS u, id_b AS v FROM pairs
  UNION ALL SELECT id_b AS u, id_a AS v FROM pairs),
reach(node, r) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.u, reach.r FROM edges e JOIN reach ON reach.node = e.v)"""


def components_sql(num_perm: int = 64, bands: int = 16, shingle: int = 8,
                   max_bucket: int = 200) -> str:
    """Connected components over the MinHash-LSH candidate-pair graph
    (mirror of stages/graph.py:connected_components over the pair set
    of lsh_pairs_sql): component = min doc_id reachable through pairs.
    The recursive CTE enumerates reachable nodes (fine at oracle scale;
    the engine runs a numpy min-label fixpoint over the collected
    pairs).
    Output (doc_id BIGINT, component BIGINT), pair-nodes only."""
    return f"""
{_reach_ctes(num_perm, bands, shingle, max_bucket)}
SELECT node AS doc_id, MIN(r) AS component FROM reach GROUP BY node"""


def canonical_sql(num_perm: int = 64, bands: int = 16, shingle: int = 8,
                  max_bucket: int = 200) -> str:
    """Full-corpus canonical doc ids: every document mapped to the
    minimum doc_id of its near-duplicate component (itself when it
    appears in no candidate pair).  Mirrors
    stages/graph.py:canonical_assignments over components_sql."""
    return f"""
{_reach_ctes(num_perm, bands, shingle, max_bucket)},
comp AS (SELECT node, MIN(r) AS component FROM reach GROUP BY node)
SELECT d.doc_id, COALESCE(c.component, d.doc_id) AS canonical
FROM documents d LEFT JOIN comp c ON c.node = d.doc_id"""


def doc_novelty_sql(shingle: int = 8) -> str:
    """Mirror of stages/dedup.py doc_novelty: distinct char-k-gram
    Horner hashes per doc; a shingle is novel for the smallest doc_id
    carrying it.  Valid for corpora where every doc has length >=
    shingle (the driver corpus: min 48)."""
    hp = [pow(_PRIME, shingle - 1 - j, U64) for j in range(shingle)]
    horner_rows = ", ".join(f"({j}, {hp[j]}::UBIGINT)" for j in range(shingle))
    return f"""
WITH hp(j, pw) AS (VALUES {horner_rows}),
docs AS (SELECT doc_id, text FROM documents
         WHERE length(text) >= {shingle}),
wins AS (
  SELECT doc_id, CAST(i AS INT) AS i
  FROM docs, UNNEST(range(1, length(text) - {shingle} + 2)) AS r(i)),
chars AS (
  SELECT w.doc_id, w.i, hp.j,
    (ascii(substring(d.text, w.i + hp.j, 1))::HUGEINT * hp.pw) % {U64}
      AS term
  FROM wins w JOIN docs d USING (doc_id) CROSS JOIN hp),
wh AS (
  SELECT doc_id, i, CAST(SUM(term) % {U64} AS UBIGINT) AS h
  FROM chars GROUP BY doc_id, i),
dist AS (SELECT DISTINCT doc_id, h FROM wh),
firsts AS (SELECT h, min(doc_id) AS first_doc FROM dist GROUP BY h)
SELECT d.doc_id,
       count(*)::BIGINT AS n_shingles,
       sum(CASE WHEN f.first_doc = d.doc_id THEN 1 ELSE 0 END)::BIGINT
         AS n_novel
FROM dist d JOIN firsts f USING (h) GROUP BY d.doc_id"""


def canonical_quality_sql(num_perm: int = 64, bands: int = 16,
                          shingle: int = 8,
                          max_bucket: int = 200) -> str:
    """Quality-keeping canonical ids: every document mapped to the
    highest-n_chars member of its near-duplicate component (ties ->
    smallest doc_id; itself when in no candidate pair).  Mirrors
    stages/graph.py:canonical_by_quality over components_sql."""
    return f"""
{_reach_ctes(num_perm, bands, shingle, max_bucket)},
comp AS (SELECT node, MIN(r) AS component FROM reach GROUP BY node),
best AS (
  SELECT component, node AS rep FROM (
    SELECT c.component, c.node, row_number() OVER (
        PARTITION BY c.component
        ORDER BY d.n_chars DESC, c.node) AS rn
    FROM comp c JOIN documents d ON d.doc_id = c.node) t
  WHERE rn = 1)
SELECT d.doc_id, COALESCE(b.rep, d.doc_id) AS canonical
FROM documents d
LEFT JOIN comp c ON c.node = d.doc_id
LEFT JOIN best b ON b.component = c.component"""


def zorder_hist_sql(bits: int = 13, xmod: int = 8_640_000,
                    ymod: int = 6_000_000, xmul: int = 97_003,
                    ymul: int = 53_003) -> str:
    """Mirror of q_zorder_hist: 13-bit integer cell quantization of the
    projected sweep, Morton bit-interleave via the 4-step magic-number
    spread ladder (bigint & | << arithmetic, identical to
    stages/zorder.py:spread_bits16), histogram by z-prefix bucket with
    per-bucket min/max key."""
    n = 1 << bits
    m1, m2 = 0x00FF00FF00FF00FF, 0x0F0F0F0F0F0F0F0F
    m3, m4 = 0x3333333333333333, 0x5555555555555555

    def spread(col: str) -> str:
        s = f"({col} | ({col} << 8)) & {m1}"
        s = f"(({s}) | (({s}) << 4)) & {m2}"
        s = f"(({s}) | (({s}) << 2)) & {m3}"
        s = f"(({s}) | (({s}) << 1)) & {m4}"
        return s

    return f"""
WITH cells AS (
  SELECT (((l_orderkey * {xmul}) % {xmod}) * {n}) // {xmod} AS cx,
         (((l_suppkey * {ymul}) % {ymod}) * {n}) // {ymod} AS cy
  FROM lineitem),
keys AS (
  SELECT ({spread('cx')}) | (({spread('cy')}) << 1) AS zkey FROM cells)
SELECT zkey >> 16 AS bucket, count(*) AS n,
       MIN(zkey) AS min_zkey, MAX(zkey) AS max_zkey
FROM keys GROUP BY bucket"""


def balanced_sample_sql(key_col: str = "lang") -> str:
    """Mirror of stages/sample.py:balanced_sample over ``documents``:
    per-class integer threshold (min_count << 32) // count computed in
    SQL from the same counts, keep iff splitmix64(doc_id xor salt) %
    2^32 < threshold.  All-integer both sides."""
    from equi7grid_ray.stages.sample import SAMPLE_SALT

    return f"""
WITH cnt AS (SELECT {key_col}, count(*) AS n FROM documents GROUP BY {key_col}),
mn AS (SELECT MIN(n) AS m FROM cnt),
thr AS (SELECT {key_col}, (mn.m * 4294967296) // cnt.n AS t FROM cnt, mn),
h0 AS (
  SELECT doc_id, {key_col},
    xor(doc_id::UBIGINT, {int(SAMPLE_SALT)}::UBIGINT) AS h
  FROM documents),
{_mix64_ctes('h0', 'h', f'doc_id, {key_col}')}
SELECT mixed.doc_id, mixed.{key_col}
FROM mixed JOIN thr USING ({key_col})
WHERE h % {1 << 32} < t
"""


def hilbert_hist_sql(bits: int = 13, xmod: int = 8_640_000,
                     ymod: int = 6_000_000, xmul: int = 97_003,
                     ymul: int = 53_003) -> str:
    """Mirror of q_hilbert_hist: the iterative Hilbert xy->d walk
    (stages/zorder.py:hilbert_key) unrolled as one chained CTE per
    level -- each level computes rx/ry from the CURRENT (x, y), adds
    s*s*((3*rx) XOR ry) and applies the rotate/reflect, exactly the
    numpy pass."""
    n = 1 << bits
    ctes = [
        f"h0 AS (SELECT (((l_orderkey * {xmul}) % {xmod}) * {n}) // {xmod} AS x, "
        f"(((l_suppkey * {ymul}) % {ymod}) * {n}) // {ymod} AS y, "
        f"0::BIGINT AS d FROM lineitem)"
    ]
    for k, lev in enumerate(range(bits - 1, -1, -1), start=1):
        s = 1 << lev
        rx = f"CASE WHEN (x & {s}) > 0 THEN 1 ELSE 0 END"
        ry = f"CASE WHEN (y & {s}) > 0 THEN 1 ELSE 0 END"
        nx = (f"CASE WHEN (y & {s}) = 0 THEN "
              f"(CASE WHEN (x & {s}) > 0 THEN {n - 1} - y ELSE y END) "
              f"ELSE x END")
        ny = (f"CASE WHEN (y & {s}) = 0 THEN "
              f"(CASE WHEN (x & {s}) > 0 THEN {n - 1} - x ELSE x END) "
              f"ELSE y END")
        ctes.append(
            f"h{k} AS (SELECT {nx} AS x, {ny} AS y, "
            f"d + {s * s} * xor(3 * ({rx}), {ry}) AS d FROM h{k - 1})"
        )
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT d >> 16 AS bucket, count(*) AS n, "
        f"MIN(d) AS min_d, MAX(d) AS max_d FROM h{bits} GROUP BY bucket"
    )


def lsh_edit_verified_sql(max_dist: int = 32, num_perm: int = 64,
                          bands: int = 16, shingle: int = 8,
                          max_bucket: int = 200) -> str:
    """Mirror of stages/editdist.py edit_verified_pairs: the LSH
    candidate SQL extended with exact Levenshtein <= max_dist (DuckDB's
    levenshtein(); the corpus is pure ASCII so byte and character
    distances coincide with the engine's uint8 DP)."""
    base = lsh_pairs_sql(num_perm=num_perm, bands=bands, shingle=shingle,
                         max_bucket=max_bucket)
    head, final = base.rsplit("SELECT DISTINCT a.doc_id AS id_a", 1)
    cand_select = "SELECT DISTINCT a.doc_id AS id_a" + final
    return f"""{head.rstrip()},
cand AS ({cand_select})
SELECT c.id_a, c.id_b,
       levenshtein(da.text, db.text)::BIGINT AS edit_dist
FROM cand c
JOIN documents da ON da.doc_id = c.id_a
JOIN documents db ON db.doc_id = c.id_b
WHERE levenshtein(da.text, db.text) <= {max_dist}
"""


def dedup_report_sql(num_perm: int = 64, bands: int = 16, shingle: int = 8,
                     max_bucket: int = 200) -> str:
    """Per-source dedup survival report: doc counts, exact-text extras
    (doc_id != min id of its text group), near-dup extras (canonical
    != doc_id over the LSH component closure), and survivors."""
    return f"""
{_reach_ctes(num_perm, bands, shingle, max_bucket)},
comp AS (SELECT node, MIN(r) AS component FROM reach GROUP BY node),
flags AS (
  SELECT d.source,
    CASE WHEN d.doc_id <> min(d.doc_id) OVER (PARTITION BY d.text)
         THEN 1 ELSE 0 END AS ee,
    CASE WHEN COALESCE(c.component, d.doc_id) <> d.doc_id
         THEN 1 ELSE 0 END AS ne
  FROM documents d LEFT JOIN comp c ON c.node = d.doc_id)
SELECT source, count(*)::BIGINT AS n_docs,
       sum(ee)::BIGINT AS n_exact_extra,
       sum(ne)::BIGINT AS n_near_extra,
       (count(*) - sum(ne))::BIGINT AS n_kept
FROM flags GROUP BY source"""


def audio_gate_sql(n_images: int = 500, loud: int = 30_000,
                   quiet: int = 256, min_quiet_run: int = 2) -> str:
    """Mirror of stages/multimodal.py:AudioGate: s16le samples from the
    synthetic payload bytes, loud-fraction clip rule (100*n_loud >
    8*n), gaps-and-islands longest quiet run, first-failing reason."""
    return f"""
WITH {pcm_samples_sql(n_images)},
q AS (SELECT i, k,
             CASE WHEN abs(v) <= {quiet} THEN 1 ELSE 0 END AS quiet,
             CASE WHEN abs(v) >= {loud} THEN 1 ELSE 0 END AS loud
      FROM sv),
runs AS (
  SELECT i, quiet,
         sum(CASE WHEN quiet = 0 THEN 1 ELSE 0 END)
           OVER (PARTITION BY i ORDER BY k) AS g
  FROM q),
qr AS (
  SELECT i, max(cnt) AS max_quiet FROM (
    SELECT i, g, count(*) AS cnt FROM runs WHERE quiet = 1
    GROUP BY i, g) GROUP BY i),
agg AS (SELECT i, sum(loud)::BIGINT AS n_loud, count(*)::BIGINT AS n
        FROM q GROUP BY i)
SELECT printf('img%012d', a.i) AS image_id, a.n_loud,
       COALESCE(qr.max_quiet, 0)::BIGINT AS max_quiet,
       CASE WHEN 100 * a.n_loud > 8 * a.n THEN 'clipped'
            WHEN COALESCE(qr.max_quiet, 0) >= {min_quiet_run}
            THEN 'silent' ELSE 'ok' END AS reason
FROM agg a LEFT JOIN qr ON qr.i = a.i
"""


def audio_vad_sql(n_images: int = 500, frame: int = 64,
                  msq_thresh: int = 400_000_000) -> str:
    """Mirror of stages/multimodal.py:AudioVAD: s16le samples from the
    synthetic payload bytes, non-overlapping frames of ``frame``
    samples (trailing partial dropped), active when the frame energy
    exceeds frame * msq_thresh, gaps-and-islands segments."""
    return f"""
WITH {pcm_samples_sql(n_images, f"{frame} * (((w * h) // 2) // {frame})")},
fr AS (
  SELECT i, k // {frame} AS f, sum(v * v)::BIGINT AS e
  FROM sv GROUP BY i, k // {frame}),
act AS (
  SELECT i, f, CASE WHEN e > {frame} * {msq_thresh}::BIGINT
                    THEN 1 ELSE 0 END AS a
  FROM fr),
runs AS (
  SELECT i, f, a,
         sum(CASE WHEN a = 0 THEN 1 ELSE 0 END)
           OVER (PARTITION BY i ORDER BY f) AS g
  FROM act),
seg AS (
  SELECT i, g, count(*) AS len FROM runs WHERE a = 1 GROUP BY i, g),
per_seg AS (
  SELECT i, count(*)::BIGINT AS n_segments, max(len)::BIGINT AS longest
  FROM seg GROUP BY i),
per_clip AS (
  SELECT i, count(*)::BIGINT AS n_frames, sum(a)::BIGINT AS n_active
  FROM act GROUP BY i)
SELECT printf('img%012d', c.i) AS image_id, c.n_frames, c.n_active,
       COALESCE(s.n_segments, 0)::BIGINT AS n_segments,
       COALESCE(s.longest, 0)::BIGINT AS longest
FROM per_clip c LEFT JOIN per_seg s ON s.i = c.i
"""


def feature_hash_sql(n_buckets: int = 64, max_token_len: int = 64) -> str:
    """Mirror of stages/text.py:feature_hashing over ``documents``:
    whitespace tokens -> the shared polynomial+splitmix64 token hash
    -> bucket ``h % n_buckets`` signed by hash bit 6, occurrences
    summed; per-doc nnz / l1 / positional checksum."""
    return f"""
WITH pw(j, p) AS (VALUES {_pow_values(max_token_len)}),
toks AS (
  SELECT doc_id, u.tok
  FROM documents, UNNEST(regexp_split_to_array(text, '\\s')) AS u(tok)
  WHERE u.tok <> ''),
uniq AS (SELECT DISTINCT tok FROM toks),
chars AS (
  SELECT tok, CAST(i AS INT) AS i, ascii(substring(tok, CAST(i AS INT), 1))::UBIGINT AS byte
  FROM uniq, UNNEST(range(1, length(tok) + 1)) AS r(i)),
poly AS (
  SELECT c.tok,
    CAST(SUM((c.byte::HUGEINT * pw.p) % {U64}) % {U64} AS UBIGINT) AS hraw,
    CAST(max(c.i) AS UBIGINT) AS blen
  FROM chars c JOIN pw ON pw.j = c.i - 1 GROUP BY c.tok),
seeded AS (
  SELECT tok, xor(xor(hraw, CAST((blen::HUGEINT * {_PRIME}) % {U64} AS UBIGINT)), {_SEED}::UBIGINT) AS h
  FROM poly),
{_mix64_ctes('seeded', 'h', 'tok')},
occ AS (SELECT t.doc_id, m.h FROM toks t JOIN mixed m ON m.tok = t.tok),
vec AS (
  SELECT doc_id, CAST(h % {n_buckets} AS BIGINT) AS b,
    SUM(CASE WHEN (h >> 6) & 1 = 0 THEN 1 ELSE -1 END)::BIGINT AS v
  FROM occ GROUP BY doc_id, b),
agg AS (
  SELECT doc_id,
    (count(*) FILTER (WHERE v != 0))::BIGINT AS nnz,
    sum(abs(v))::BIGINT AS l1,
    sum((b + 1) * v)::BIGINT AS checksum
  FROM vec GROUP BY doc_id)
SELECT d.doc_id, coalesce(a.nnz, 0)::BIGINT AS nnz,
  coalesce(a.l1, 0)::BIGINT AS l1,
  coalesce(a.checksum, 0)::BIGINT AS checksum
FROM documents d LEFT JOIN agg a USING (doc_id)"""

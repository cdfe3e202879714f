"""Apache Avro object-container-file source — from-scratch codec.

Avro is the row-oriented interchange format of the Kafka/Hadoop world;
a data-engineering user of the reference brings .avro dumps the same
way they bring CSV/ORC/IPC (sources/columnar.py). No avro library
exists in this container, so the codec is implemented from the public
specification (Apache Avro 1.11 spec, "Object Container Files" +
"Binary encoding"): magic ``Obj\\x01``, a string->bytes metadata map
carrying the JSON schema and codec name, a 16-byte sync marker, then
data blocks of (row_count, byte_size, rows..., sync) with zigzag-varint
longs and length-prefixed strings; the ``deflate`` codec is RAW deflate
(RFC 1951, no zlib header) via the stdlib.

Same scale shape as the other file sources: shard FILES are the
parallel grain — ``read_avro`` lists the shards and parses each inside
its ``read_binary_files`` task on the worker holding the bytes; the
driver never sees a row. The sandbox-side writer derives deterministic
shards from the documents table so the paired query's DuckDB twin can
re-derive the rollup logically from the parquet view, and the hash gate
proves the encode + distributed-decode round trip byte-exact.

Supported schema surface (honest subset, mirrors what the writer
emits plus the common cases a real dump contains): records of
null/boolean/int/long/float/double/string/bytes fields and 2-branch
``["null", X]`` unions; codecs ``null`` and ``deflate``.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from typing import Any, Callable, Dict, List

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

_MAGIC = b"Obj\x01"


# ------------------------------------------------------------- encoding

def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63)


def _write_long(out: bytearray, n: int) -> None:
    z = _zigzag(n)
    while True:
        b = z & 0x7F
        z >>= 7
        if z:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _write_bytes(out: bytearray, b: bytes) -> None:
    _write_long(out, len(b))
    out += b


def _write_str(out: bytearray, s: str) -> None:
    _write_bytes(out, s.encode("utf-8"))


def _read_long(buf: memoryview, pos: int) -> tuple:
    shift = 0
    acc = 0
    while True:
        b = buf[pos]
        pos += 1
        acc |= (b & 0x7F) << shift
        if not b & 0x80:
            break
        shift += 7
    return (acc >> 1) ^ -(acc & 1), pos


# --------------------------------------------------------------- writer

def _doc_schema_json(table: pa.Table) -> str:
    """Map the documents table's Arrow schema to an Avro record schema
    (all columns here are non-null int64/string/double)."""
    m = {pa.int64(): "long", pa.string(): "string",
         pa.float64(): "double", pa.bool_(): "boolean"}
    fields = []
    for f in table.schema:
        if f.type not in m:
            raise ValueError(f"unsupported column type {f.type} for avro")
        fields.append({"name": f.name, "type": m[f.type]})
    return json.dumps({"type": "record", "name": "doc", "fields": fields})


def write_avro_shards(documents_parquet: str, out_dir: str,
                      num_shards: int = 8,
                      rows_per_block: int = 200,
                      codec: str = "deflate") -> str:
    """Deterministic sandbox-side shard writer (shard k holds
    doc_id % num_shards == k, ascending doc_id; fixed block size, fixed
    sync marker derived from the shard index — bit-stable output).
    Idempotent via _COMPLETE, stale when the source parquet is newer
    (sources/warc.py:53 discipline)."""
    if codec not in ("null", "deflate"):
        raise ValueError("codec must be 'null' or 'deflate'")
    marker = os.path.join(out_dir, "_COMPLETE")
    if os.path.exists(marker) and \
            os.stat(marker).st_mtime_ns >= \
            os.stat(documents_parquet).st_mtime_ns:
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    t = pq.read_table(documents_parquet).sort_by("doc_id")
    schema_json = _doc_schema_json(t)
    mod = t["doc_id"].to_numpy() % num_shards
    types = [str(f.type) for f in t.schema]
    for k in range(num_shards):
        part = t.filter(pa.array(mod == k))
        cols = [part[c].to_pylist() for c in part.column_names]
        sync = struct.pack(">IIII", 0xD0C5EED5, k, num_shards,
                           part.num_rows)
        out = bytearray()
        out += _MAGIC
        _write_long(out, 2)  # metadata map: one block of 2 entries
        _write_str(out, "avro.schema")
        _write_str(out, schema_json)
        _write_str(out, "avro.codec")
        _write_str(out, codec)
        _write_long(out, 0)  # end of map
        out += sync
        n = part.num_rows
        for s in range(0, max(n, 1), rows_per_block):
            e = min(s + rows_per_block, n)
            if e <= s:
                break
            body = bytearray()
            for i in range(s, e):
                for col, ty in zip(cols, types):
                    v = col[i]
                    if ty == "int64":
                        _write_long(body, int(v))
                    elif ty == "string":
                        _write_str(body, v)
                    elif ty == "double":
                        body += struct.pack("<d", float(v))
                    elif ty == "bool":
                        body.append(1 if v else 0)
            payload = bytes(body)
            if codec == "deflate":
                co = zlib.compressobj(6, zlib.DEFLATED, -15)
                payload = co.compress(payload) + co.flush()
            _write_long(out, e - s)
            _write_long(out, len(payload))
            out += payload
            out += sync
        with open(os.path.join(out_dir, f"shard-{k:05d}.avro"),
                  "wb") as f:
            f.write(bytes(out))
    with open(marker, "w") as f:
        f.write("ok")
    return out_dir


# --------------------------------------------------------------- reader

def _field_decoders(schema: Dict[str, Any]) -> List[tuple]:
    """(name, decoder, arrow_type) per record field. A decoder takes
    (memoryview, pos) and returns (value, pos)."""
    def dec_null(buf, pos):
        return None, pos

    def dec_bool(buf, pos):
        return bool(buf[pos]), pos + 1

    def dec_long(buf, pos):
        return _read_long(buf, pos)

    def dec_float(buf, pos):
        return struct.unpack_from("<f", buf, pos)[0], pos + 4

    def dec_double(buf, pos):
        return struct.unpack_from("<d", buf, pos)[0], pos + 8

    def dec_bytes(buf, pos):
        n, pos = _read_long(buf, pos)
        return bytes(buf[pos:pos + n]), pos + n

    def dec_str(buf, pos):
        n, pos = _read_long(buf, pos)
        return str(buf[pos:pos + n], "utf-8"), pos + n

    prim = {"null": (dec_null, pa.null()), "boolean": (dec_bool, pa.bool_()),
            "int": (dec_long, pa.int32()), "long": (dec_long, pa.int64()),
            "float": (dec_float, pa.float32()),
            "double": (dec_double, pa.float64()),
            "bytes": (dec_bytes, pa.binary()),
            "string": (dec_str, pa.string())}

    def resolve(ty) -> tuple:
        if isinstance(ty, str):
            if ty not in prim:
                raise ValueError(f"unsupported avro type {ty!r}")
            return prim[ty]
        if isinstance(ty, list):  # union — only ["null", X] supported
            if len(ty) != 2 or "null" not in ty:
                raise ValueError(f"unsupported avro union {ty!r}")
            other = ty[0] if ty[1] == "null" else ty[1]
            null_idx = ty.index("null")
            inner, at = resolve(other)

            def dec_union(buf, pos, _inner=inner, _null=null_idx):
                idx, pos = _read_long(buf, pos)
                if idx == _null:
                    return None, pos
                return _inner(buf, pos)

            return dec_union, at
        if isinstance(ty, dict):
            return resolve(ty.get("type"))
        raise ValueError(f"unsupported avro type {ty!r}")

    if schema.get("type") != "record":
        raise ValueError("top-level avro schema must be a record")
    out = []
    for f in schema["fields"]:
        dec, at = resolve(f["type"])
        out.append((f["name"], dec, at))
    return out


_PROMOTIONS = {("int", "long"), ("int", "float"), ("int", "double"),
               ("long", "float"), ("long", "double"),
               ("float", "double"), ("string", "bytes"),
               ("bytes", "string")}


def _resolve_reader(writer: Dict[str, Any],
                    reader: Dict[str, Any]) -> List[tuple]:
    """Avro schema resolution (spec 'Schema Resolution'): match fields
    by NAME; writer-only fields are decoded and discarded; reader-only
    fields need a ``default``; numeric/string-bytes promotions allowed.
    Returns [(reader_field_name, writer_name_or_None, default,
    arrow_type, promote_to)] in READER field order."""
    def base(ty):
        if isinstance(ty, dict):
            return base(ty.get("type"))
        if isinstance(ty, list):
            other = [t for t in ty if t != "null"]
            return base(other[0]) if len(other) == 1 else None
        return ty

    arrow_of = {"null": pa.null(), "boolean": pa.bool_(),
                "int": pa.int32(), "long": pa.int64(),
                "float": pa.float32(), "double": pa.float64(),
                "bytes": pa.binary(), "string": pa.string()}
    wfields = {f["name"]: f for f in writer["fields"]}
    plan = []
    for rf in reader["fields"]:
        rname = rf["name"]
        rbase = base(rf["type"])
        if rbase not in arrow_of:
            raise ValueError(f"unsupported reader type {rf['type']!r}")
        wf = wfields.get(rname)
        if wf is None:
            if "default" not in rf:
                raise ValueError(
                    f"reader field {rname!r} absent from writer schema "
                    "and has no default")
            plan.append((rname, None, rf["default"], arrow_of[rbase],
                         None))
            continue
        wbase = base(wf["type"])
        if wbase != rbase and (wbase, rbase) not in _PROMOTIONS:
            raise ValueError(
                f"cannot resolve writer type {wbase!r} to reader type "
                f"{rbase!r} for field {rname!r}")
        plan.append((rname, rname, None, arrow_of[rbase],
                     rbase if wbase != rbase else None))
    return plan


def _apply_promote(vals: list, promote: str) -> list:
    if promote in ("long", "int"):
        return vals
    if promote in ("float", "double"):
        return [None if v is None else float(v) for v in vals]
    if promote == "string":
        return [None if v is None else
                (v.decode("utf-8") if isinstance(v, bytes) else v)
                for v in vals]
    if promote == "bytes":
        return [None if v is None else
                (v.encode("utf-8") if isinstance(v, str) else v)
                for v in vals]
    return vals


def parse_avro_file(data: bytes, reader_schema: Dict[str, Any] = None
                    ) -> pa.Table:
    """One whole .avro container -> Arrow table (runs inside the read
    task; pure stdlib). ``reader_schema`` activates Avro schema
    resolution — subset/reorder projection, defaults for reader-only
    fields, numeric and string<->bytes promotions — with writer-only
    fields decoded-and-discarded (the wire format is not seekable
    per-field, so a skip still walks the bytes; the saving of a true
    projection is the Arrow materialization, which this does apply)."""
    if bytes(data[:4]) != _MAGIC:
        raise ValueError("not an avro object container file")
    buf = memoryview(data)
    pos = 4
    meta: Dict[str, bytes] = {}
    while True:
        cnt, pos = _read_long(buf, pos)
        if cnt == 0:
            break
        if cnt < 0:  # spec: negative count prefixes a byte size
            cnt = -cnt
            _, pos = _read_long(buf, pos)
        for _ in range(cnt):
            kn, pos = _read_long(buf, pos)
            key = str(buf[pos:pos + kn], "utf-8")
            pos += kn
            vn, pos = _read_long(buf, pos)
            meta[key] = bytes(buf[pos:pos + vn])
            pos += vn
    schema = json.loads(meta["avro.schema"].decode("utf-8"))
    codec = meta.get("avro.codec", b"null").decode()
    if codec not in ("null", "deflate"):
        raise ValueError(f"unsupported avro codec {codec!r}")
    sync = bytes(buf[pos:pos + 16])
    pos += 16
    fields = _field_decoders(schema)
    cols: Dict[str, list] = {name: [] for name, _, _ in fields}
    total = len(buf)
    while pos < total:
        nrows, pos = _read_long(buf, pos)
        nbytes, pos = _read_long(buf, pos)
        body = buf[pos:pos + nbytes]
        pos += nbytes
        if codec == "deflate":
            body = memoryview(zlib.decompress(bytes(body), -15))
        bp = 0
        for _ in range(nrows):
            for name, dec, _ in fields:
                v, bp = dec(body, bp)
                cols[name].append(v)
        if bytes(buf[pos:pos + 16]) != sync:
            raise ValueError("avro sync marker mismatch (corrupt block)")
        pos += 16
    if reader_schema is None:
        return pa.table({name: pa.array(cols[name], at)
                         for name, _, at in fields})
    plan = _resolve_reader(schema, reader_schema)
    n = len(next(iter(cols.values()))) if cols else 0
    out = {}
    for rname, wname, default, at, promote in plan:
        if wname is None:
            out[rname] = pa.array([default] * n, at)
        else:
            out[rname] = pa.array(_apply_promote(cols[wname], promote),
                                  at)
    return pa.table(out)


def read_avro(shard_dir: str, on_error: str = "raise",
              schema: "pa.Schema" = None,
              reader_schema: Dict[str, Any] = None) -> "ray.data.Dataset":
    """Read a directory of .avro shards; one decode task per shard file
    (the sources/warc.py:13 pattern — ray.data has no avro reader).

    ``on_error="quarantine"`` gives the bad-records semantics every
    production ingest needs (Spark's badRecordsPath, Delta's
    permissive mode): a shard that fails to parse — corrupt sync,
    truncated block, bad magic, corrupt deflate body — contributes
    ZERO rows instead of killing the job, logs a WARNING with the
    shard path, and the good shards flow through untouched.
    ``schema`` (required for quarantine) shapes the empty table a
    failed shard yields so the stream's schema stays uniform. At 100 TB one rotten file out of
    thousands must not abort a day-long run; the per-partition
    manifests (state/checkpoint.py) record counts, so the shortfall
    is visible downstream."""
    if on_error not in ("raise", "quarantine"):
        raise ValueError("on_error must be 'raise' or 'quarantine'")
    if on_error == "quarantine" and schema is None:
        raise ValueError("quarantine mode needs an explicit schema")
    paths = [os.path.join(shard_dir, f)
             for f in sorted(os.listdir(shard_dir)) if f.endswith(".avro")]
    if not paths:
        raise ValueError(f"no *.avro shards in {shard_dir}")

    def parse(batch: pa.Table) -> pa.Table:
        parts = []
        for path, buf in zip(batch["path"].to_pylist(),
                             batch["bytes"].to_pylist()):
            try:
                parts.append(parse_avro_file(buf, reader_schema))
            except (ValueError, KeyError, IndexError, zlib.error,
                    struct.error) as e:
                if on_error == "raise":
                    raise
                import logging

                logging.getLogger(__name__).warning(
                    "quarantined corrupt avro shard %s: %s", path, e)
        if not parts:
            return schema.empty_table() if schema is not None \
                else pa.table({})
        return pa.concat_tables(parts)

    return ray.data.read_binary_files(paths, include_paths=True) \
        .map_batches(parse, batch_format="pyarrow", batch_size=1)

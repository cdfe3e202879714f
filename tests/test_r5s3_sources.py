"""Round-5 session-3 sources: the from-scratch Avro object-container
codec (sources/avro.py), SCD2, z-order and the media codecs. The distributed
legs are hash-gated by the driver (`avro_ingest`); these tests cover
the pure codec kernels, the schema surface the writer does NOT emit
(unions, null codec, floats), and the failure modes. The Delta-log
tests live in tests/test_deltalog.py."""

import json
import os
import struct
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from documentprocessor_ray.sources.avro import (
    _read_long, _write_long, _write_str, parse_avro_file,
    write_avro_shards, _MAGIC)


def _mk_container(schema: dict, rows: list, codec: str = "null",
                  sync: bytes = b"S" * 16) -> bytes:
    """Hand-rolled container for schema shapes the sandbox writer does
    not emit (mirrors the spec, not the writer — an independent check)."""
    out = bytearray()
    out += _MAGIC
    _write_long(out, 2)
    _write_str(out, "avro.schema")
    _write_str(out, json.dumps(schema))
    _write_str(out, "avro.codec")
    _write_str(out, codec)
    _write_long(out, 0)
    out += sync
    body = bytearray()
    for row in rows:
        body += row
    payload = bytes(body)
    if codec == "deflate":
        co = zlib.compressobj(6, zlib.DEFLATED, -15)
        payload = co.compress(payload) + co.flush()
    _write_long(out, len(rows))
    _write_long(out, len(payload))
    out += payload
    out += sync
    return bytes(out)


class TestAvroCodec:
    def test_zigzag_varint_roundtrip(self):
        for n in (0, -1, 1, 63, -64, 64, 2**31, -2**31, 2**62,
                  -(2**62), 2**63 - 1, -(2**63)):
            buf = bytearray()
            _write_long(buf, n)
            got, pos = _read_long(memoryview(bytes(buf)), 0)
            assert got == n and pos == len(buf), n

    def test_shard_roundtrip_byte_exact(self, tmp_path):
        src = "/root/testdata/sf0.001/documents.parquet"
        d = write_avro_shards(src, str(tmp_path / "avro"), num_shards=4)
        parts = [parse_avro_file(open(os.path.join(d, f), "rb").read())
                 for f in sorted(os.listdir(d)) if f.endswith(".avro")]
        t = pa.concat_tables(parts).sort_by("doc_id")
        ref = pq.read_table(src).sort_by("doc_id") \
            .replace_schema_metadata(None)
        assert t.select(ref.column_names).cast(ref.schema).equals(ref)

    def test_writer_deterministic(self, tmp_path):
        src = "/root/testdata/sf0.001/documents.parquet"
        d1 = write_avro_shards(src, str(tmp_path / "a"), num_shards=2)
        d2 = write_avro_shards(src, str(tmp_path / "b"), num_shards=2)
        for f in sorted(os.listdir(d1)):
            if f.endswith(".avro"):
                assert open(os.path.join(d1, f), "rb").read() == \
                    open(os.path.join(d2, f), "rb").read()

    def test_null_union_and_scalars(self):
        schema = {"type": "record", "name": "r", "fields": [
            {"name": "s", "type": ["null", "string"]},
            {"name": "f", "type": "float"},
            {"name": "b", "type": "boolean"},
            {"name": "raw", "type": "bytes"},
            {"name": "i", "type": "int"}]}

        def row(s, f, b, raw, i):
            out = bytearray()
            if s is None:
                _write_long(out, 0)  # union branch 0 = null
            else:
                _write_long(out, 1)
                _write_str(out, s)
            out += struct.pack("<f", f)
            out.append(1 if b else 0)
            _write_long(out, len(raw))
            out += raw
            _write_long(out, i)
            return bytes(out)

        data = _mk_container(schema, [row("hi", 1.5, True, b"\x00\xff", -7),
                                      row(None, -2.0, False, b"", 41)])
        t = parse_avro_file(data)
        assert t["s"].to_pylist() == ["hi", None]
        assert t["f"].to_pylist() == [1.5, -2.0]
        assert t["b"].to_pylist() == [True, False]
        assert t["raw"].to_pylist() == [b"\x00\xff", b""]
        assert t["i"].to_pylist() == [-7, 41]
        assert t.schema.field("i").type == pa.int32()

    def test_negative_map_count_with_size(self):
        # spec: a negative map-block count prefixes the block byte size
        out = bytearray()
        out += _MAGIC
        _write_long(out, -1)
        inner = bytearray()
        _write_str(inner, "avro.schema")
        _write_str(inner, json.dumps({"type": "record", "name": "r",
                                      "fields": [{"name": "x",
                                                  "type": "long"}]}))
        _write_long(out, len(inner))
        out += inner
        _write_long(out, 0)
        out += b"Y" * 16
        body = bytearray()
        _write_long(body, 99)
        _write_long(out, 1)
        _write_long(out, len(body))
        out += body + b"Y" * 16
        t = parse_avro_file(bytes(out))
        assert t["x"].to_pylist() == [99]

    def test_corrupt_sync_raises(self):
        schema = {"type": "record", "name": "r",
                  "fields": [{"name": "x", "type": "long"}]}
        row = bytearray()
        _write_long(row, 5)
        data = bytearray(_mk_container(schema, [bytes(row)]))
        data[-1] ^= 0xFF  # clobber trailing sync
        with pytest.raises(ValueError, match="sync"):
            parse_avro_file(bytes(data))

    def test_bad_magic_and_unknown_codec(self):
        with pytest.raises(ValueError, match="container"):
            parse_avro_file(b"NOPE" + b"\x00" * 32)
        schema = {"type": "record", "name": "r",
                  "fields": [{"name": "x", "type": "long"}]}
        data = _mk_container(schema, [], codec="snappy")
        with pytest.raises(ValueError, match="codec"):
            parse_avro_file(data)

    def test_unsupported_schema_shapes(self):
        for bad in ({"type": "record", "name": "r", "fields":
                     [{"name": "x", "type": {"type": "array",
                                             "items": "long"}}]},
                    {"type": "record", "name": "r", "fields":
                     [{"name": "x", "type": ["string", "long"]}]},
                    {"type": "long"}):
            data = _mk_container(bad, [])
            with pytest.raises(ValueError):
                parse_avro_file(data)


class TestSCD2:
    def test_interval_semantics(self, ray_session, tmp_path):
        """Hand-built history: runs collapse, valid_to chains half-open,
        re-appearing values open NEW intervals (type-2, not type-1)."""
        import pyarrow as pa
        import ray.data

        from documentprocessor_ray.pipelines.analysis import (
            q_scd2_priority)

        day = 86_400_000_000
        rows = {
            # cust 1: A,A,B,A -> three intervals (A reappears)
            "o_custkey": [1, 1, 1, 1, 2],
            "o_orderdate": [0 * day, 1 * day, 2 * day, 3 * day, 5 * day],
            "o_orderkey": [10, 11, 12, 13, 20],
            "o_orderpriority": ["A", "A", "B", "A", "Z"],
        }
        t = pa.table({
            "o_custkey": pa.array(rows["o_custkey"], pa.int64()),
            "o_orderdate": pa.array(rows["o_orderdate"],
                                    pa.timestamp("us")),
            "o_orderkey": pa.array(rows["o_orderkey"], pa.int64()),
            "o_orderpriority": pa.array(rows["o_orderpriority"],
                                        pa.string()),
            "o_orderstatus": pa.array(["O"] * 5, pa.string()),
            "o_totalprice": pa.array([1.0] * 5, pa.float64()),
        })
        sf = tmp_path / "sf"
        sf.mkdir()
        import pyarrow.parquet as pq
        pq.write_table(t, str(sf / "orders.parquet"))
        out = q_scd2_priority(str(sf)).take_all()
        got = sorted(
            ((r["o_custkey"], r["priority"], r["valid_from"],
              r["valid_to"], r["n_orders"], r["is_current"])
             for r in out))
        assert got == [
            (1, "A", 0, 2 * day, 2, 0),
            (1, "A", 3 * day, None, 1, 1),
            (1, "B", 2 * day, 3 * day, 1, 0),
            (2, "Z", 5 * day, None, 1, 1),
        ]


class TestAvroFuzz:
    def test_random_tables_roundtrip(self, tmp_path):
        """Property fuzz: random documents-shaped tables survive the
        write->parse round trip byte-exact (unicode text incl. astral
        planes, negative ids, empty strings, single-row shards)."""
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=30, deadline=None)
        @given(st.lists(
            st.tuples(st.integers(-2**40, 2**40),
                      st.text(max_size=80),
                      st.sampled_from(["en", "de", "", "zh"]),
                      st.integers(0, 10**6)),
            min_size=1, max_size=50, unique_by=lambda r: r[0]))
        def run(rows):
            import pyarrow as pa
            import pyarrow.parquet as pq

            from documentprocessor_ray.sources.avro import (
                parse_avro_file, write_avro_shards)

            t = pa.table({
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
                "lang": pa.array([r[2] for r in rows], pa.string()),
                "n_chars": pa.array([r[3] for r in rows], pa.int64())})
            import hashlib
            key = hashlib.md5(repr(rows).encode()).hexdigest()[:10]
            src = str(tmp_path / f"src_{key}.parquet")
            pq.write_table(t, src)
            d = write_avro_shards(src, str(tmp_path / f"avro_{key}"),
                                  num_shards=3, rows_per_block=7)
            parts = [parse_avro_file(open(os.path.join(d, f), "rb").read())
                     for f in sorted(os.listdir(d))
                     if f.endswith(".avro")]
            got = pa.concat_tables([p for p in parts if p.num_rows]) \
                .sort_by("doc_id")
            assert got.cast(t.schema).equals(t.sort_by("doc_id"))

        run()


def _first_block_body_offset(blob: bytes) -> int:
    """Offset of the first data block's (compressed) body in an avro
    container: past the header's sync marker, the row count and the size."""
    from documentprocessor_ray.sources.avro import _read_long

    pos = blob.index(blob[-16:]) + 16  # every block ends with the sync
    _, pos = _read_long(memoryview(blob), pos)
    _, pos = _read_long(memoryview(blob), pos)
    return pos


class TestAvroQuarantine:
    @pytest.mark.parametrize("flip", [
        lambda blob: len(blob) - 1,  # sync marker of the last block
        lambda blob: _first_block_body_offset(blob) + 1,  # zlib.error
    ], ids=["last_byte", "deflate_body"])
    def test_quarantine_drops_only_rotten_shard(self, ray_session,
                                                tmp_path, flip):
        import ray.data  # noqa: F401

        from documentprocessor_ray.sources.avro import (
            read_avro, write_avro_shards)

        src = "/root/testdata/sf0.001/documents.parquet"
        d = write_avro_shards(src, str(tmp_path / "avro"), num_shards=4)
        victim = os.path.join(d, "shard-00002.avro")
        blob = bytearray(open(victim, "rb").read())
        blob[flip(bytes(blob))] ^= 0xFF
        open(victim, "wb").write(bytes(blob))
        schema = pa.schema([("doc_id", pa.int64()),
                            ("text", pa.string()),
                            ("lang", pa.string()),
                            ("source", pa.string()),
                            ("n_chars", pa.int64())])
        got = read_avro(d, on_error="quarantine", schema=schema) \
            .to_arrow_refs()
        import ray as _ray
        t = pa.concat_tables([x for x in _ray.get(got)
                              if x.num_rows]).sort_by("doc_id")
        ref = pq.read_table(src).replace_schema_metadata(None)
        keep = (ref["doc_id"].to_numpy() % 4) != 2
        assert t.equals(ref.filter(pa.array(keep)).sort_by("doc_id"))

    def test_raise_mode_propagates(self, ray_session, tmp_path):
        import pytest as _pytest
        import ray as _ray

        from documentprocessor_ray.sources.avro import (
            read_avro, write_avro_shards)

        src = "/root/testdata/sf0.001/documents.parquet"
        d = write_avro_shards(src, str(tmp_path / "avro"), num_shards=2)
        victim = os.path.join(d, "shard-00001.avro")
        blob = bytearray(open(victim, "rb").read())
        blob[5] ^= 0xFF  # clobber the metadata map
        open(victim, "wb").write(bytes(blob))
        with _pytest.raises(Exception):
            read_avro(d).take_all()

    def test_quarantine_needs_schema(self, tmp_path):
        import pytest as _pytest

        from documentprocessor_ray.sources.avro import read_avro

        with _pytest.raises(ValueError, match="schema"):
            read_avro(str(tmp_path), on_error="quarantine")


class TestZOrder:
    def test_morton_roundtrip_and_locality(self, ray_session):
        """Spread/compact are exact inverses across the 21-bit domain,
        and Z-order packing yields tighter per-file envelopes than
        id-order packing (the reason the operator exists)."""
        import ray  # noqa: F401

        from documentprocessor_ray.pipelines.analysis import (
            q_zorder_cluster)

        out = q_zorder_cluster("/root/testdata/sf0.001").take_all()
        assert sum(r["n_rows"] for r in out) == 500
        # per-file envelope areas, z-ordered
        z_areas = [(r["max_x"] - r["min_x"]) * (r["max_y"] - r["min_y"])
                   for r in out]
        # naive id-order envelope: same points packed by vec_id
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet",
                          columns=["vec_id", "embedding"]).sort_by("vec_id")
        import numpy as np
        flat = pc.list_flatten(t["embedding"].combine_chunks()) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        mat = flat.reshape(t.num_rows, -1)
        x = np.floor(1e6 * mat[:, 0] + 0.5).astype(np.int64)
        y = np.floor(1e6 * mat[:, 1] + 0.5).astype(np.int64)
        id_areas = []
        for s in range(0, t.num_rows, 64):
            xs, ys = x[s:s + 64], y[s:s + 64]
            id_areas.append(int((xs.max() - xs.min()))
                            * int((ys.max() - ys.min())))
        assert np.median(z_areas) < 0.5 * np.median(id_areas), \
            (sorted(z_areas), sorted(id_areas))


class TestAvroEvolution:
    def _shards(self, tmp_path):
        return write_avro_shards("/root/testdata/sf0.001/documents.parquet",
                                 str(tmp_path / "avro"), num_shards=2)

    def _one(self, d, reader):
        f = sorted(x for x in os.listdir(d) if x.endswith(".avro"))[0]
        return parse_avro_file(open(os.path.join(d, f), "rb").read(),
                               reader)

    def test_subset_reorder_default(self, tmp_path):
        d = self._shards(tmp_path)
        reader = {"type": "record", "name": "doc", "fields": [
            {"name": "lang", "type": "string"},
            {"name": "doc_id", "type": "long"},
            {"name": "quality", "type": "long", "default": 7}]}
        t = self._one(d, reader)
        assert t.column_names == ["lang", "doc_id", "quality"]
        assert set(t["quality"].to_pylist()) == {7}
        full = self._one(d, None)
        assert t["doc_id"].to_pylist() == full["doc_id"].to_pylist()
        assert t["lang"].to_pylist() == full["lang"].to_pylist()

    def test_promotions(self, tmp_path):
        d = self._shards(tmp_path)
        reader = {"type": "record", "name": "doc", "fields": [
            {"name": "doc_id", "type": "double"},     # long -> double
            {"name": "text", "type": "bytes"},        # string -> bytes
            {"name": "n_chars", "type": "long"}]}
        t = self._one(d, reader)
        assert t.schema.field("doc_id").type == pa.float64()
        assert t.schema.field("text").type == pa.binary()
        full = self._one(d, None)
        assert t["doc_id"].to_pylist() == \
            [float(v) for v in full["doc_id"].to_pylist()]
        assert t["text"].to_pylist() == \
            [s.encode() for s in full["text"].to_pylist()]

    def test_missing_without_default_raises(self, tmp_path):
        d = self._shards(tmp_path)
        reader = {"type": "record", "name": "doc", "fields": [
            {"name": "nope", "type": "long"}]}
        with pytest.raises(ValueError, match="default"):
            self._one(d, reader)

    def test_incompatible_type_raises(self, tmp_path):
        d = self._shards(tmp_path)
        reader = {"type": "record", "name": "doc", "fields": [
            {"name": "text", "type": "long"}]}
        with pytest.raises(ValueError, match="resolve"):
            self._one(d, reader)

    def test_demotion_rejected(self, tmp_path):
        # double -> int is NOT a legal promotion direction
        d = self._shards(tmp_path)
        reader = {"type": "record", "name": "doc", "fields": [
            {"name": "doc_id", "type": "int"}]}
        with pytest.raises(ValueError, match="resolve"):
            self._one(d, reader)


class TestAudioMFCC:
    def test_tone_separation_through_real_wav_codec(self):
        import numpy as np

        from documentprocessor_ray.stages.multimodal import (
            AudioMFCCStage, RawCodec, encode_wav_pcm16)
        import pyarrow as pa

        sr = 16000
        t = np.arange(sr * 2) / sr

        def asset(aid, freq):
            wav = (0.6 * np.sin(2 * np.pi * freq * t))
            pcm = (wav * 32767).astype(np.int16)
            return {"asset_id": aid, "kind": "audio",
                    "payload": encode_wav_pcm16(pcm, sample_rate=sr),
                    "meta": {"format": "wav", "width": 0, "height": 0,
                             "sample_rate": sr, "n_frames": 0}}

        batch = pa.Table.from_pylist(
            [asset("low", 200.0), asset("high", 3500.0),
             asset("low2", 200.0)])
        out = AudioMFCCStage(codec=RawCodec())(batch)
        rows = {r["asset_id"]: r for r in out.to_pylist()}
        assert all(r["error"] is None for r in rows.values())
        assert rows["low"]["n_frames"] == (sr * 2) // 1024
        # identical tones -> identical MFCCs; distinct tones differ
        lo = [rows["low"][f"mfcc_{j}"] for j in range(8)]
        lo2 = [rows["low2"][f"mfcc_{j}"] for j in range(8)]
        hi = [rows["high"][f"mfcc_{j}"] for j in range(8)]
        assert lo == lo2
        assert lo != hi
        # a pure low tone concentrates energy in few low mel bands ->
        # slowly-varying log-mel -> large |mfcc_1| relative to high tone's
        assert abs(lo[1]) != abs(hi[1])

    def test_empty_and_error_paths(self):
        import pyarrow as pa

        from documentprocessor_ray.stages.multimodal import (
            AudioMFCCStage, RawCodec)

        batch = pa.Table.from_pylist([
            {"asset_id": "bad", "kind": "audio", "payload": b"nope",
             "meta": {"format": "wav", "width": 0, "height": 0,
                      "sample_rate": 16000, "n_frames": 0}}])
        out = AudioMFCCStage(codec=RawCodec())(batch).to_pylist()
        assert out[0]["error"] is not None and out[0]["n_frames"] == 0


class TestAnimatedGIF:
    def _frames(self, seed=3, n=3, h=8, w=10):
        rng = np.random.default_rng(seed)
        return [(rng.integers(0, 4, (h, w, 3)) * 60).astype(np.uint8)
                for _ in range(n)]

    def test_full_frame_animation_roundtrip(self):
        from documentprocessor_ray.stages.multimodal import (
            _gif_decode, _gif_decode_frames, encode_gif_anim)

        frames = self._frames()
        data = encode_gif_anim(frames)
        out = _gif_decode_frames(data)
        assert len(out) == 3
        for a, b in zip(out, frames):
            assert (a == b).all()
        # still-image path returns the FIRST raster, consistent
        assert (_gif_decode(data) == frames[0]).all()

    def test_transparency_and_disposal(self):
        from documentprocessor_ray.stages.multimodal import (
            _gif_decode_frames, encode_gif_anim)

        base = np.full((10, 10, 3), 200, np.uint8)
        patch = np.full((4, 4, 3), 10, np.uint8)
        mask = np.zeros((4, 4), bool)
        mask[0, 0] = True
        data = encode_gif_anim(
            [base, patch, patch], disposals=[1, 2, 3],
            transparent_masks=[None, mask, None],
            offsets=[(0, 0), (2, 2), (5, 5)], screen=(10, 10))
        f = _gif_decode_frames(data)
        assert (f[0] == base).all()
        exp1 = base.copy()
        exp1[2:6, 2:6] = patch
        exp1[2, 2] = 200  # transparent pixel leaves canvas
        assert (f[1] == exp1).all()
        # disposal=2 on frame 2 restored its region to BACKGROUND
        # (palette slot of the encoder's bg index 0) before frame 3
        exp2 = exp1.copy()
        bg = f[2][2, 2]  # what disposal-2 painted
        exp2[2:6, 2:6] = bg
        exp2[5:9, 5:9] = patch
        assert (f[2] == exp2).all()
        # disposal=3 on frame 3: a 4th frame would see exp2's pre-state;
        # absence is fine — compositing history already pinned above

    def test_disposal3_restores_previous(self):
        from documentprocessor_ray.stages.multimodal import (
            _gif_decode_frames, encode_gif_anim)

        a = np.full((6, 6, 3), 100, np.uint8)
        b = np.full((3, 3, 3), 30, np.uint8)
        c = np.full((2, 2, 3), 250, np.uint8)
        data = encode_gif_anim([a, b, c], disposals=[1, 3, 1],
                               offsets=[(0, 0), (1, 1), (4, 4)],
                               screen=(6, 6))
        f = _gif_decode_frames(data)
        exp_b = a.copy()
        exp_b[1:4, 1:4] = b
        assert (f[1] == exp_b).all()
        exp_c = a.copy()  # frame b fully undone by disposal 3
        exp_c[4:6, 4:6] = c
        assert (f[2] == exp_c).all()

    def test_realcodec_video_route_and_stride(self):
        from documentprocessor_ray.stages.multimodal import (
            RealCodec, encode_gif_anim)

        frames = self._frames(seed=9, n=5)
        data = encode_gif_anim(frames)
        out = RealCodec().decode_video_frames(data, {}, stride=2)
        assert len(out) == 3  # frames 0, 2, 4
        assert (out[1] == frames[2]).all()
        with pytest.raises(NotImplementedError, match="GIF"):
            RealCodec().decode_video_frames(b"\x00\x00\x00\x18ftyp", {},
                                            1)

    def test_giflib_raster_crosscheck(self):
        """Real giflib slurps the same file: frame COUNT and the first
        frame's composited pixels agree (giflib exposes raw rasters;
        frame 0 has no prior canvas, so raw == composited)."""
        from documentprocessor_ray.stages import syscodecs as SC
        from documentprocessor_ray.stages.multimodal import (
            _gif_decode_frames, encode_gif_anim)

        if not SC.libgif_available():
            pytest.skip("system libgif not present")
        frames = self._frames(seed=5, n=4)
        data = encode_gif_anim(frames)
        ours = _gif_decode_frames(data)
        assert (SC.gif_decode_rgb(data) == ours[0]).all()


class TestPpmQoi:
    def test_roundtrips_and_realcodec_route(self):
        from documentprocessor_ray.stages.multimodal import (
            RealCodec, _ppm_decode, _qoi_decode, encode_ppm, encode_qoi)

        rng = np.random.default_rng(70)
        img = rng.integers(0, 256, (23, 31, 3), dtype=np.uint8)
        rc = RealCodec()
        assert (rc.decode_image(encode_ppm(img), {}) == img).all()
        assert (rc.decode_image(encode_qoi(img), {}) == img).all()

    def test_ppm_comments_and_guards(self):
        from documentprocessor_ray.stages.multimodal import (
            _ppm_decode, encode_ppm)

        img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        data = encode_ppm(img)
        # inject a header comment per the netpbm spec
        commented = data.replace(b"P6\n", b"P6\n# made by a test\n", 1)
        assert (_ppm_decode(commented) == img).all()
        with pytest.raises(ValueError, match="PPM"):
            _ppm_decode(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="truncated"):
            _ppm_decode(data[:-2])

    def test_qoi_op_coverage_and_guards(self):
        from documentprocessor_ray.stages.multimodal import (
            _qoi_decode, encode_qoi)

        # flat runs (RUN), revisited colors (INDEX), small deltas
        # (DIFF), medium deltas (LUMA), jumps (RGB) — all in one image
        rng = np.random.default_rng(71)
        img = np.zeros((16, 64, 3), np.uint8)
        img[0:4] = 55
        img[4:8] = np.cumsum(rng.integers(0, 2, (4, 64, 3)),
                             axis=1).astype(np.uint8)
        img[8:12] = np.cumsum(rng.integers(0, 12, (4, 64, 3)),
                              axis=1).astype(np.uint8)
        img[12:] = rng.integers(0, 256, (4, 64, 3), dtype=np.uint8)
        img[15, ::2] = 55  # INDEX hits
        data = encode_qoi(img)
        assert (_qoi_decode(data) == img).all()
        assert len(data) < img.size  # ops actually compress
        with pytest.raises(ValueError, match="QOI"):
            _qoi_decode(b"nope" + b"\x00" * 16)
        bad = bytearray(data)
        bad[-1] = 0  # clobber the end marker
        with pytest.raises(ValueError, match="end marker"):
            _qoi_decode(bytes(bad))


class TestCodecFuzz:
    def test_tiff_lzw_kernel_fuzz(self):
        from hypothesis import given, settings, strategies as st

        from documentprocessor_ray.stages.multimodal import (
            _tiff_lzw_decode, _tiff_lzw_encode)

        @settings(max_examples=40, deadline=None)
        @given(st.binary(max_size=4096))
        def run(raw):
            assert _tiff_lzw_decode(_tiff_lzw_encode(raw)) == raw

        run()

    def test_qoi_fuzz(self):
        from hypothesis import given, settings, strategies as st

        from documentprocessor_ray.stages.multimodal import (
            _qoi_decode, encode_qoi)

        @settings(max_examples=25, deadline=None)
        @given(st.integers(1, 12), st.integers(1, 12),
               st.integers(0, 2**32 - 1))
        def run(h, w, seed):
            rng = np.random.default_rng(seed)
            # mixed content: flat patches + small deltas + jumps
            img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            if h > 2:
                img[:2] = img[0, 0]
            assert (_qoi_decode(encode_qoi(img)) == img).all()

        run()

    def test_gif_anim_fuzz(self):
        from hypothesis import given, settings, strategies as st

        from documentprocessor_ray.stages.multimodal import (
            _gif_decode_frames, encode_gif_anim)

        @settings(max_examples=15, deadline=None)
        @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
        def run(seed, n_frames):
            rng = np.random.default_rng(seed)
            h, w = int(rng.integers(4, 12)), int(rng.integers(4, 12))
            frames = [(rng.integers(0, 3, (h, w, 3)) * 80).astype(np.uint8)
                      for _ in range(n_frames)]
            out = _gif_decode_frames(encode_gif_anim(frames))
            assert len(out) == n_frames
            for a, b in zip(out, frames):
                assert (a == b).all()

        run()

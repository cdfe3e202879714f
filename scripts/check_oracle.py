"""Local mimic of the driver's correctness gate: run every queries() entry
and its oracle_sql() twin on an sf dir; compare row count, column names and
order-insensitive values. Usage:

    python scripts/check_oracle.py [sf_dir] [query ...] [--json OUT.json]

With --json, a driver-format record per query ({rows_match, schema_match,
hash_match, spark_rows, oracle_rows, err, secs}) is written to OUT.json —
the full-registry correctness artifact (CORRECTNESS_full_r{N}.json).
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = np.round(df[c].astype(np.float64), 6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif df[c].dtype == object or pd.api.types.is_string_dtype(df[c]):
            df[c] = df[c].astype(object).where(df[c].notna(), None)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def main():
    argv = sys.argv[1:]
    json_out = None
    if "--json" in argv:
        i = argv.index("--json")
        json_out = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.001"
    only = set(argv[1:])
    records = {}
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, log_to_driver=False)
    import __ray_entry__ as E

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = E.queries()
    oracles = E.oracle_sql()
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        rec = {"err": None, "hash_match": None, "oracle_rows": None,
               "rows_match": None, "schema_match": None, "spark_rows": None,
               "secs": None}
        records[name] = rec
        t0 = time.time()
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            failures.append(name)
            rec["err"] = f"query raised {type(e).__name__}: {e}"
            print(f"FAIL  {name}: {rec['err']}")
            continue
        dt = time.time() - t0
        rec["secs"] = round(dt, 2)
        rec["spark_rows"] = len(mine)
        if name not in oracles:
            rec["rows_match"] = len(mine) > 0
            if not rec["rows_match"]:
                # keep the artifact and the exit status consistent: an
                # empty rows-only result is a failure in both
                failures.append(name)
                print(f"FAIL  {name}: rows-only query returned 0 rows")
            else:
                print(f"ok    {name}: rows-only ({len(mine)} rows, "
                      f"{dt:.1f}s)")
            continue
        try:
            exp = canon(con.execute(oracles[name]).df())
        except Exception as e:
            failures.append(name)
            rec["err"] = f"oracle SQL raised {e}"
            print(f"FAIL  {name}: {rec['err']}")
            continue
        rec["oracle_rows"] = len(exp)
        rec["schema_match"] = list(mine.columns) == list(exp.columns)
        if not rec["schema_match"]:
            failures.append(name)
            print(f"FAIL  {name}: columns {list(mine.columns)} != {list(exp.columns)}")
            continue
        rec["rows_match"] = len(mine) == len(exp)
        if not rec["rows_match"]:
            failures.append(name)
            print(f"FAIL  {name}: rows {len(mine)} != {len(exp)}")
            continue
        eq = mine.equals(exp)
        rec["hash_match"] = bool(eq)
        if not eq:
            # locate first differing cell for debugging
            diff_cols = [c for c in mine.columns if not mine[c].equals(exp[c])]
            print(f"FAIL  {name}: value mismatch in {diff_cols}")
            for c in diff_cols[:2]:
                neq = mine[c] != exp[c]
                both_nan = mine[c].isna() & exp[c].isna()
                neq = neq & ~both_nan
                i = neq.idxmax() if neq.any() else None
                if i is not None and neq.any():
                    print(f"      {c}[{i}]: mine={mine[c][i]!r} oracle={exp[c][i]!r}")
                    print(f"      row mine: {mine.iloc[i].to_dict()}")
                    print(f"      row oracle: {exp.iloc[i].to_dict()}")
            failures.append(name)
            continue
        print(f"ok    {name}: {len(mine)} rows match ({dt:.1f}s)")
    if json_out:
        import json

        with open(json_out, "w") as f:
            json.dump({"sf_dir": sf_dir, "n_queries": len(records),
                       "n_failures": len(failures), "failures": failures,
                       "results": records}, f, indent=1, sort_keys=True)
        print(f"wrote {json_out} ({len(records)} queries)")
    print("\n" + ("ALL OK" if not failures else f"FAILURES: {failures}"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

"""Text-analysis kernels for the training-data pipeline surface:
token counting, fingerprinting, quality counts, language ID.

Vectorized (one Arrow whitespace-token scan, pandas str, numpy) — no
per-row Python in hot paths except hashing, which is per-row by nature
but C-speed via hashlib.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# small multilingual stopword sets for the language-ID heuristic
_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "you", "that"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "los", "se", "no"},
    "fr": {"le", "la", "de", "et", "les", "des", "en", "un", "du", "que"},
    "de": {"der", "die", "und", "das", "ist", "von", "den", "mit", "ein", "zu"},
}
STOPWORDS_EN = sorted(_LANG_MARKERS["en"])


def token_rows(texts) -> tuple[np.ndarray, pa.StringArray]:
    """Every whitespace token of ``texts`` as flat ``(row, tok)``, rows
    ascending and tokens in text order: adjacent tokens share a doc
    exactly when their ``row`` is equal. Null/blank texts yield none.

    Contract: tokens split on Unicode whitespace, i.e. Python's ``\\s``
    (equals ``re.findall(r"\\S+", text)``). The DuckDB oracles'
    ``regexp_extract_all(text, '\\S+')`` use RE2, whose ``\\s`` is only
    ``[ \\t\\n\\r\\f]`` (``\\v``, ``\\x1c-\\x1f``, ``\\x85``, ``\\xa0``,
    ``\\u2028``, ``\\u3000`` stay inside tokens there), so they agree with
    this only on ASCII-whitespace text — all the test tables hold.
    The single-space family (tfidf_top_term, repetition_scores,
    _word_ngrams, dedup.word_ngram_hashes) keeps ``str.split(" ")``:
    its oracles' ``string_split(text, ' ')`` keeps empty tokens."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    elif not isinstance(texts, pa.Array):
        texts = pa.array(texts, pa.string())
    n = len(texts)
    # utf8_split_whitespace reads past the end of a text that ends in
    # whitespace: if the bytes after the array's last text are invalid
    # UTF-8 (unset buffer padding), it returns that whitespace as a
    # token, so results varied from call to call. A trailing "x" row
    # makes the bytes after every real text valid; its token is dropped.
    texts = pa.concat_arrays([texts, pa.array(["x"], texts.type)])
    lists = pc.utf8_split_whitespace(texts)
    row = pc.list_parent_indices(lists)
    tok = pc.list_flatten(lists)
    keep = pc.and_(pc.greater(pc.binary_length(tok), 0), pc.less(row, n))
    return row.filter(keep).to_numpy(), tok.filter(keep)


def token_count(texts: pd.Series) -> pd.Series:
    """Whitespace token count per text (``token_rows`` contract)."""
    row, _ = token_rows(texts)
    return pd.Series(np.bincount(row, minlength=len(texts)),
                     index=texts.index, dtype="int64")


def bpe_ish_token_count(texts: pd.Series) -> pd.Series:
    """A BPE-ish subword proxy: alnum runs + punctuation marks each
    count as one token (deterministic, no model)."""
    return texts.str.count(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]").astype("int64")


def md5_fingerprint(texts: pd.Series) -> pd.Series:
    """Hex MD5 of the UTF-8 text (matches DuckDB ``md5(text)``)."""
    return texts.map(lambda t: hashlib.md5(t.encode("utf-8")).hexdigest())


def md5_of_ids(ids) -> np.ndarray:
    """Hex MD5 of each DECIMAL id (matches DuckDB
    ``md5(CAST(id AS VARCHAR))`` — the deterministic-split/sample
    contract). Ids are unique per row, so the url-style
    factorize-hash-gather dedup (pipelines/extract.py) buys nothing
    here; the win over ``Series.map(lambda ...)`` is dropping the
    per-element pandas/lambda frames for one tight C-md5 loop."""
    _md5 = hashlib.md5
    return np.array([_md5(b"%d" % i).hexdigest() for i in map(int, ids)],
                    dtype=object)


def md5_bucket_of_ids(ids) -> np.ndarray:
    """Deterministic per-id percentile bucket: first 8 hex chars of
    md5(decimal id) mod 100 — identical on any engine (mirrors DuckDB
    ``('0x' || substr(md5(id::VARCHAR), 1, 8))::BIGINT % 100``),
    stable under reshuffles/reruns. The shared primitive behind the
    train/val/test split and stratified sampling."""
    _md5 = hashlib.md5
    return np.fromiter(
        (int(_md5(b"%d" % i).hexdigest()[:8], 16) % 100
         for i in map(int, ids)), dtype=np.int64, count=len(ids))


def split_of_ids(ids) -> np.ndarray:
    """Deterministic ~80/10/10 train/val/test assignment over the
    md5 percentile bucket. Post-hash mapping is vectorized."""
    b = md5_bucket_of_ids(ids)
    return np.where(b < 80, "train",
                    np.where(b < 90, "val", "test")).astype(object)


# PII masking patterns, shared verbatim with the DuckDB oracle
# (pipelines/extended.SQL_REDACT_PII): the subset of regex syntax
# where Python `re` and RE2 agree (no lookaround, no backrefs), so
# both engines produce identical replacements. Order matters — emails
# first, else the phone pattern eats digit runs inside addresses.
PII_PATTERNS = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"\+\d[\d\- ]{7,}\d", "<PHONE>"),
)
_PII_COMPILED = [(re.compile(p), r) for p, r in PII_PATTERNS]


def redact_pii(texts: pd.Series) -> pd.Series:
    """Mask emails, IPv4 addresses and +international phone runs with
    typed placeholder tokens. Vectorized ``str.replace`` over compiled
    patterns (one C loop per pattern, no per-row Python)."""
    out = texts
    for pat, repl in _PII_COMPILED:
        out = out.str.replace(pat, repl, regex=True)
    return out


def sha1_u64(texts: pd.Series) -> np.ndarray:
    """First 8 bytes of SHA-1 as uint64 — stable content key for
    hash-partitioned dedup."""
    return np.fromiter(
        (int.from_bytes(hashlib.sha1(t.encode("utf-8")).digest()[:8], "big")
         for t in texts), dtype=np.uint64, count=len(texts))


def rolling_fingerprint(texts: pd.Series, window: int = 16) -> pd.Series:
    """Document fingerprint: min of a rolling polynomial hash over
    byte windows (a winnowing-style signature), deterministic."""
    B, M = 257, (1 << 61) - 1
    pow_w = pow(B, window - 1, M)

    def fp(t: str) -> int:
        data = t.encode("utf-8")
        if len(data) < window:
            return int.from_bytes(hashlib.sha1(data).digest()[:8], "big") >> 1
        h = 0
        best = M
        for i, b in enumerate(data):
            if i >= window:
                h = (h - data[i - window] * pow_w) % M
            h = (h * B + b) % M
            if i >= window - 1 and h < best:
                best = h
        return best

    return texts.map(fp)


def quality_counts(texts: pd.Series) -> pd.DataFrame:
    """Integer quality signals (exact, hash-stable): chars, tokens,
    alpha chars, digit chars, punct chars, stopword tokens."""
    return pd.DataFrame({
        "n_chars": texts.str.len().astype("int64"),
        "n_tokens": token_count(texts),
        "n_alpha": texts.str.count(r"[A-Za-z]").astype("int64"),
        "n_digit": texts.str.count(r"[0-9]").astype("int64"),
        "n_punct": texts.str.count(r"[^\w\s]").astype("int64"),
        "n_stopwords": texts.str.lower().str.count(
            r"\b(?:" + "|".join(STOPWORDS_EN) + r")\b").astype("int64"),
    })


def quality_score(texts: pd.Series) -> pd.Series:
    """Composite [0,1] quality heuristic (length / punct / stopword
    ratios), float64 — exposed without a SQL oracle."""
    q = quality_counts(texts)
    n = q["n_chars"].clip(lower=1)
    tok = q["n_tokens"].clip(lower=1)
    length_ok = ((q["n_chars"] >= 50) & (q["n_chars"] <= 20000)).astype(float)
    alpha_ratio = q["n_alpha"] / n
    punct_penalty = (q["n_punct"] / n).clip(upper=0.5) * 2.0
    stop_ratio = (q["n_stopwords"] / tok).clip(upper=0.5) * 2.0
    return (0.25 * length_ok + 0.35 * alpha_ratio
            + 0.2 * (1.0 - punct_penalty) + 0.2 * stop_ratio)


def lang_id(texts: pd.Series) -> pd.Series:
    """N-gram/stopword language-ID heuristic: CJK codepoint share first,
    then marker-stopword hit counts; 'und' when nothing matches."""
    cjk = texts.str.count(r"[一-鿿぀-ヿ]")
    n = texts.str.len().clip(lower=1)
    scores = {}
    lowered = texts.str.lower()
    for lang, markers in _LANG_MARKERS.items():
        pat = r"\b(?:" + "|".join(sorted(markers)) + r")\b"
        scores[lang] = lowered.str.count(pat)
    df = pd.DataFrame(scores)
    best = df.idxmax(axis=1)
    best_score = df.max(axis=1)
    out = best.where(best_score > 0, "und")
    return out.mask(cjk / n > 0.2, "zh")

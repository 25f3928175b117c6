"""Pure-function text extraction + tokenization.

Reference analogue: the corpus text is produced by concatenating
``"{title} {text}"`` (``/root/reference/src/data/dataset/base.py:495-508``)
and then run through an HF tokenizer (``src/data/pd_module/base.py:83-116``).
Our corpus is Common-Crawl-style web pages (BASELINE.json ``input_hint``), so
the equivalent per-row map is: extract ``text`` from ``html`` (byte-identical
to the table's ``text`` column — the per-row invariant), then tokenize with a
deterministic regex tokenizer whose semantics the DuckDB oracle can reproduce
(``regexp_split_to_array(lower(text), '[^a-z0-9]+')``).

Everything here is vectorized over Arrow/numpy batches — no per-row Python in
the hot path beyond the regex engine itself (which operates on a single
joined buffer per batch where possible).
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .config import EngineConfig, DEFAULT_CONFIG

# The fixture html template (FIXTURES.md §1):
#   <html><head><title>{title}</title></head><body><p>{text}</p></body></html>
# Real-world extraction would be an actor-pool stage wrapping a proper HTML
# parser; the sealed container has none, so extraction is a deterministic
# regex over the <p>...</p> body that is exact for the fixture corpus and
# verified byte-identical against the `text` column in tests.
_BODY_RE = re.compile(rb"<p>(.*?)</p>\s*</body>", re.S)
_TITLE_RE = re.compile(rb"<title>(.*?)</title>", re.S)


def extract_text_from_html(html: bytes) -> str:
    """Extract body text from one html payload (byte-identity contract)."""
    m = _BODY_RE.search(html)
    if m is None:
        return ""
    return m.group(1).decode("utf-8")


def extract_text_batch(html_col: pa.Array) -> pa.Array:
    """Vectorized extraction over an Arrow binary column: RE2 in C++
    (``pc.extract_regex``) — no per-row Python bytes objects, which is what
    lets the stage scale across 32 concurrent workers (Python-object
    allocation contends across processes on the page allocator).  Byte-
    identical to :func:`extract_text_from_html` (tested); the Python loop
    remains as the slot where a real HTML parser (C-backed) would go."""
    try:
        res = pc.extract_regex(html_col, pattern=r"(?s)<p>(?P<t>.*?)</p>\s*</body>")
        return pc.fill_null(res.field("t").cast(pa.string()), "")
    except Exception:
        out = [extract_text_from_html(v) if v is not None else "" for v in html_col.to_pylist()]
        return pa.array(out, type=pa.string())


# --- Lucene-Analyzer-style chain (config.analyzer == "light_en") ---
# StopFilter list: a fixed English stoplist (subset of Lucene's
# EnglishAnalyzer ENGLISH_STOP_WORDS_SET), applied BEFORE stemming —
# StandardAnalyzer filter order, and it keeps stop tokens from being
# mangled by the stemmer ("this" -> "thi").
STOP_WORDS: frozenset = frozenset(
    "a an and are as at be but by for if in into is it no not of on or "
    "such that the their then there these they this to was will with".split()
)
# Minimal English stemmer (Lucene EnglishMinimalStemFilter flavor) as an
# ORDERED regexp_replace chain — each rule rewrites the previous rule's
# output.  The SAME chain runs in three engines: Python ``re`` (per-token
# fallback), Arrow RE2 (once per unique vocab term per batch), and the
# DuckDB oracle's regexp_replace (both are RE2 with ``\\1`` backrefs), so
# analyzed indexes stay SQL-replayable.
LIGHT_EN_RULES: list = [
    (r"^([a-z0-9]{2,})ies$", r"\1y"),  # queries -> query
    (r"^([a-z0-9]{2,})sses$", r"\1ss"),  # classes -> class
    (r"^([a-z0-9]{2,}[^su])s$", r"\1"),  # joins -> join (not ss/us)
    (r"^([a-z0-9]{4,})ing$", r"\1"),  # joining -> join
    (r"^([a-z0-9]{3,})ed$", r"\1"),  # joined -> join
    # Porter step-5a flavor: final-e deletion so 'merge' (doc) and
    # 'merging' (query) conflate to the same stem 'merg'
    (r"^([a-z0-9]{4,})e$", r"\1"),  # merge -> merg
]


class Tokenizer:
    """Regex tokenizer; compile once, reuse across batches (construct it in
    a stage's ``__init__`` on the driver; the stage ships it to every
    task)."""

    def __init__(self, config: EngineConfig = DEFAULT_CONFIG):
        self.config = config
        self.pattern = re.compile(config.token_pattern)
        self.lowercase = config.lowercase
        self.analyzer = getattr(config, "analyzer", "standard")
        self._stem_rules = (
            [(re.compile(p), r) for p, r in LIGHT_EN_RULES]
            if self.analyzer == "light_en"
            else None
        )
        # Lucene ShingleFilter (min=max=2, output_unigrams=false): the
        # token stream becomes word bigrams "a_b"; dl counts shingles
        self._shingle = self.analyzer == "shingle"

    def _analyze_tokens(self, toks: list) -> list:
        """Per-token Python analysis chain (fallback path): stop filter
        then the stem rule chain.  Mirrors :meth:`_analyze_codes`."""
        out = []
        for t in toks:
            if t in STOP_WORDS:
                continue
            for pat, rep in self._stem_rules:
                t = pat.sub(rep, t)
            out.append(t)
        return out

    def _analyze_codes(
        self, codes: np.ndarray, rows: np.ndarray, vocab: pa.Array
    ) -> tuple[np.ndarray, np.ndarray, pa.Array]:
        """Vectorized analysis chain over dictionary codes: the stop mask
        and the stem chain touch only the per-batch UNIQUE vocab (RE2 in
        C++), then one gather remaps every occurrence — no per-token
        Python, same zero-object contract as :meth:`tokenize_codes`."""
        if len(vocab) == 0 or codes.size == 0:
            return codes, rows, vocab
        stop = pc.is_in(vocab, value_set=pa.array(sorted(STOP_WORDS))).to_numpy(
            zero_copy_only=False
        )
        stemmed = vocab
        for pat, rep in LIGHT_EN_RULES:
            stemmed = pc.replace_substring_regex(stemmed, pattern=pat, replacement=rep)
        if isinstance(stemmed, pa.ChunkedArray):
            stemmed = stemmed.combine_chunks()
        dic = stemmed.dictionary_encode()
        remap = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ~stop[codes]
        return remap[codes][keep], rows[keep], dic.dictionary

    def tokenize(self, text: str) -> list[str]:
        if self.lowercase:
            text = text.lower()
        toks = self.pattern.findall(text)
        if self._stem_rules is not None:
            toks = self._analyze_tokens(toks)
        if self._shingle:
            toks = [f"{toks[i]}_{toks[i + 1]}" for i in range(len(toks) - 1)]
        return toks

    def split_pattern(self) -> str | None:
        """Invert a ``[chars]+`` token pattern into its separator pattern
        (``[^chars]+``) for Arrow's split kernel; None when the pattern is
        not a plain character class (callers fall back to the Python path)."""
        m = re.fullmatch(r"\[([^\^\]][^\]]*)\]\+", self.config.token_pattern)
        return f"[^{m.group(1)}]+" if m else None

    def tokenize_codes(self, texts) -> tuple[np.ndarray, np.ndarray, pa.Array, np.ndarray] | None:
        """Arrow-native batch tokenization → ``(codes, rows, vocab, dls)``.

        The whole batch is tokenized in C++ (``utf8_lower`` +
        ``split_pattern_regex``) and dictionary-encoded, so NO per-token
        Python object is ever created — only the per-batch *unique* terms
        exist as strings (in ``vocab``, an Arrow StringArray).  ``codes``
        indexes ``vocab`` per token occurrence, ``rows`` is the doc index
        per occurrence, ``dls`` the per-doc token counts.  Empty tokens
        (split artifacts) are already dropped; ``findall(token_pattern)``
        equivalence is exact.  Returns None when the pattern can't be
        inverted (caller uses :meth:`tokenize_flat`).

        Motivation: creating ~1M small Python strings per task collapses
        under multi-process concurrency (allocator/page-fault contention
        measured at >10x on 32 workers); this path sidesteps it entirely.
        """
        sp = self.split_pattern()
        if sp is None:
            return None
        if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = pa.array(["" if t is None else t for t in texts], type=pa.string())
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        n = len(texts)
        if n == 0:
            return (
                np.zeros(0, np.int64),
                np.zeros(0, np.int64),
                pa.array([], type=pa.string()),
                np.zeros(0, np.int64),
            )
        texts = pc.fill_null(texts, "")
        arr = pc.utf8_lower(texts) if self.lowercase else texts
        toks = pc.split_pattern_regex(arr, sp)
        flat = toks.flatten()
        raw_counts = toks.value_lengths().to_numpy(zero_copy_only=False).astype(np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), raw_counts)
        if len(flat) == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64), pa.array([], type=pa.string()), np.zeros(n, np.int64)
        dic = flat.dictionary_encode()
        codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = dic.dictionary
        empty = pc.equal(vocab, "").to_numpy(zero_copy_only=False)
        if empty.any():
            keep = codes != int(np.nonzero(empty)[0][0])
            codes, rows = codes[keep], rows[keep]
        if self._stem_rules is not None:
            codes, rows, vocab = self._analyze_codes(codes, rows, vocab)
        if self._shingle:
            codes, rows, vocab = self._shingle_codes(codes, rows, vocab)
        dls = np.bincount(rows, minlength=n).astype(np.int64)
        return codes, rows, vocab, dls

    def _shingle_codes(
        self, codes: np.ndarray, rows: np.ndarray, vocab: pa.Array
    ) -> tuple[np.ndarray, np.ndarray, pa.Array]:
        """Vectorized shingling over dictionary codes: adjacent same-row
        code pairs become the new occurrences, and shingle STRINGS are
        built only for the per-batch UNIQUE pairs (one Arrow binary_join
        over the pair vocab) — the zero-per-token-Python contract of
        :meth:`tokenize_codes` holds."""
        if codes.size < 2:
            return np.zeros(0, np.int64), np.zeros(0, np.int64), pa.array([], type=pa.string())
        adj = rows[1:] == rows[:-1]
        if not adj.any():
            return np.zeros(0, np.int64), np.zeros(0, np.int64), pa.array([], type=pa.string())
        c1, c2 = codes[:-1][adj], codes[1:][adj]
        prow = rows[:-1][adj]
        nv = np.int64(len(vocab))
        key = c1 * nv + c2
        ukey, inv = np.unique(key, return_inverse=True)
        u1 = pa.array((ukey // nv).astype(np.int64))
        u2 = pa.array((ukey % nv).astype(np.int64))
        if isinstance(vocab, pa.ChunkedArray):
            vocab = vocab.combine_chunks()
        pair_vocab = pc.binary_join_element_wise(
            vocab.take(u1).cast(pa.string()), vocab.take(u2).cast(pa.string()), "_"
        )
        return inv.astype(np.int64), prow, pair_vocab

    def tokenize_hashes(self, texts, seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch → (per-token u64 hashes in row order, rows, dls int64).
        Hashing touches only the per-batch UNIQUE terms (dictionary codes
        from :meth:`tokenize_codes`); per-occurrence Python strings never
        exist.  Hash values are identical to ``hash_strings(tokens)``."""
        from .functions.hashing import hash_strings

        enc = self.tokenize_codes(texts)
        if enc is None:
            flat, dls32 = self.tokenize_flat(texts if isinstance(texts, list) else list(texts))
            dls = dls32.astype(np.int64)
            rows = np.repeat(np.arange(dls.size, dtype=np.int64), dls)
            return hash_strings(np.asarray(flat, dtype=object), seed=seed), rows, dls
        codes, rows, vocab, dls = enc
        if codes.size == 0:
            return np.zeros(0, np.uint64), rows, dls
        vh = hash_strings(np.asarray(vocab.to_pylist(), dtype=object), seed=seed)
        return vh[codes], rows, dls

    def tokenize_md5(self, texts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`tokenize_hashes` but with the SQL-reproducible MD5
        hash (DuckDB ``md5_number_lower``) — used by the operators whose
        DuckDB oracle must recompute the same per-token hashes (simhash,
        fingerprints).  MD5 runs only over the per-batch unique vocab."""
        from .functions.hashing import md5_u64

        enc = self.tokenize_codes(texts)
        if enc is None:
            flat, dls32 = self.tokenize_flat(texts if isinstance(texts, list) else list(texts))
            dls = dls32.astype(np.int64)
            rows = np.repeat(np.arange(dls.size, dtype=np.int64), dls)
            return md5_u64(flat), rows, dls
        codes, rows, vocab, dls = enc
        if codes.size == 0:
            return np.zeros(0, np.uint64), rows, dls
        vh = md5_u64(vocab.to_pylist())
        return vh[codes], rows, dls

    def tokenize_flat(self, texts: Iterable[str]) -> tuple[list[str], np.ndarray]:
        """Tokenize a batch → (flat python token list, per-row counts).

        The flat list is the cheap interchange format: downstream kernels
        (factorize, hashing) consume python strings directly — avoid the
        python→Arrow→python roundtrip (measured 0.8s per 8k-doc batch).
        """
        texts = list(texts)
        if not texts:
            return [], np.zeros(0, np.int32)
        tokens: list[str] = []
        counts = np.zeros(len(texts), dtype=np.int64)
        lower = self.lowercase
        findall = self.pattern.findall
        analyze = self._analyze_tokens if self._stem_rules is not None else None
        for i, t in enumerate(texts):
            toks = findall((t or "").lower() if lower else (t or ""))
            if analyze is not None:
                toks = analyze(toks)
            if self._shingle:
                toks = [f"{toks[j]}_{toks[j + 1]}" for j in range(len(toks) - 1)]
            tokens.extend(toks)
            counts[i] = len(toks)
        return tokens, counts.astype(np.int32)

    def tokenize_batch(self, texts: Iterable[str]) -> tuple[pa.ListArray, np.ndarray]:
        """Tokenize a batch → (list<string> token column, dl int32 vector)."""
        tokens, counts = self.tokenize_flat(texts)
        offsets = np.zeros(counts.size + 1, dtype=np.int32)
        np.cumsum(counts, out=offsets[1:])
        arr = pa.ListArray.from_arrays(pa.array(offsets), pa.array(tokens, type=pa.string()))
        return arr, counts

    def term_counts_batch(self, texts: Iterable[str]) -> tuple[list[list[str]], list[np.ndarray], np.ndarray]:
        """Per-row (unique terms, tf vector, dl).  Returns python lists of
        numpy arrays; used by the doc-encoding stage which immediately
        re-packs them into Arrow list columns."""
        uniq_terms: list[list[str]] = []
        tfs: list[np.ndarray] = []
        dls: list[int] = []
        for text in texts:
            toks = self.tokenize(text if text is not None else "")
            dls.append(len(toks))
            if toks:
                u, c = np.unique(np.asarray(toks, dtype=object), return_counts=True)
                uniq_terms.append(u.tolist())
                tfs.append(c.astype(np.int32))
            else:
                uniq_terms.append([])
                tfs.append(np.zeros(0, np.int32))
        return uniq_terms, tfs, np.asarray(dls, dtype=np.int32)

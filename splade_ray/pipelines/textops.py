"""Text analysis operators for a training-data pipeline.

All are per-batch vectorized ``map_batches`` stages over a documents table
(``doc_id, text, ...``):

- token / char counting (SQL-expressible → DuckDB oracle in
  ``__ray_entry__``);
- quality scoring: token count, mean token length, stopword ratio,
  digit/alpha ratios (SQL-expressible);
- language-ID: stopword-profile heuristic over a handful of languages
  (heuristic — rows-only driver check);
- document fingerprinting: 64-bit rolling content hash (deterministic,
  order-sensitive — unlike the content hash used for exact dedup).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from ..stages.encode import cached_ref
from ..tokenizer import Tokenizer

# tiny per-language stopword profiles (public common function words)
LANG_PROFILES: dict[str, frozenset] = {
    "en": frozenset("the a and of to in is that it for on with as are was at be this have".split()),
    "de": frozenset("der die das und ist nicht ein eine zu mit von den des im für auf".split()),
    "es": frozenset("el la los las de que y en un una es por con para del se no".split()),
    "fr": frozenset("le la les de des et que un une est pour dans qui au du ne pas".split()),
    "ko": frozenset("이 그 저 것 수 들 는 은 가 을 를 에 의 와 과 하다 있다".split()),
    "zh": frozenset("的 是 在 了 和 有 我 他 这 中 大 来 上 国 个 到 说".split()),
}

EN_STOPWORDS = LANG_PROFILES["en"]


class TokenStatsStage:
    """(doc_id, text) → (doc_id, n_tokens, n_chars, mean_token_len,
    stopword_ratio, digit_ratio)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        text_arr = batch.column(self.text_col).combine_chunks()
        n_texts = batch.num_rows
        enc = self.tok.tokenize_codes(text_arr)
        if enc is not None:
            # per-UNIQUE-term lengths/stopword flags, gathered by code —
            # no per-occurrence Python strings
            codes, rows, vocab, dls = enc
            vlen = pc.utf8_length(vocab).to_numpy(zero_copy_only=False).astype(np.int64)
            vstop = np.fromiter((v in EN_STOPWORDS for v in vocab.to_pylist()), np.int64, len(vocab))
            n_tok = dls
            sum_len = np.bincount(rows, weights=vlen[codes], minlength=n_texts).astype(np.int64)
            sum_stop = np.bincount(rows, weights=vstop[codes], minlength=n_texts).astype(np.int64)
        else:
            flat, dls32 = self.tok.tokenize_flat(text_arr.to_pylist())
            n_tok = dls32.astype(np.int64)
            rows = np.repeat(np.arange(n_texts, dtype=np.int64), n_tok)
            tok_lens = np.fromiter((len(t) for t in flat), dtype=np.int64, count=len(flat))
            is_stop = np.fromiter((t in EN_STOPWORDS for t in flat), dtype=np.int64, count=len(flat))
            sum_len = np.bincount(rows, weights=tok_lens, minlength=n_texts).astype(np.int64)
            sum_stop = np.bincount(rows, weights=is_stop, minlength=n_texts).astype(np.int64)
        denom = np.maximum(n_tok, 1)
        n_chars = (
            pc.fill_null(pc.utf8_length(text_arr), 0).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        n_digits = (
            pc.fill_null(pc.count_substring_regex(text_arr, "[0-9]"), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "n_tokens": pa.array(n_tok),
                "n_chars": pa.array(n_chars),
                "mean_token_len": pa.array(sum_len / denom),
                "stopword_ratio": pa.array(sum_stop / denom),
                "digit_ratio": pa.array(n_digits / np.maximum(n_chars, 1)),
            }
        )


class LangIdStage:
    """Stopword-profile language heuristic (+ CJK codepoint check):
    (doc_id, text) → (doc_id, lang_pred, lang_score)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id", detail: bool = False):
        self.text_col = text_col
        self.id_col = id_col
        # detail=True additionally emits the runner-up profile score and
        # the top-1 − top-2 margin (the lang-ID confidence signal a
        # routing/filtering pipeline thresholds on)
        self.detail = detail
        self.tok = Tokenizer()
        self.langs = list(LANG_PROFILES)

    def predict(self, text: str) -> tuple[str, float]:
        text = text or ""
        # CJK scripts first — token profiles don't apply
        n_hangul = sum(1 for c in text if "가" <= c <= "힯")
        n_han = sum(1 for c in text if "一" <= c <= "鿿")
        if len(text) and (n_hangul + n_han) / len(text) > 0.1:
            return ("ko", n_hangul / len(text)) if n_hangul >= n_han else ("zh", n_han / len(text))
        toks = text.lower().split()
        if not toks:
            return "und", 0.0
        best, score = "und", 0.0
        for lang in ("en", "de", "es", "fr"):
            s = sum(1 for t in toks if t in LANG_PROFILES[lang]) / len(toks)
            if s > score:
                best, score = lang, s
        return (best, score) if score > 0.05 else ("und", score)

    _PRED_LANGS = ("en", "de", "es", "fr")

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized equivalent of :meth:`predict` over the whole batch:
        CJK codepoint counts via RE2 char-class counts, stopword-profile
        scores via dictionary codes over whitespace tokens."""
        text = batch.column(self.text_col).combine_chunks()
        n = batch.num_rows
        nchar = pc.fill_null(pc.utf8_length(text), 0).to_numpy(zero_copy_only=False).astype(np.float64)
        n_hangul = pc.fill_null(pc.count_substring_regex(text, "[가-힯]"), 0).to_numpy(zero_copy_only=False).astype(np.float64)
        n_han = pc.fill_null(pc.count_substring_regex(text, "[一-鿿]"), 0).to_numpy(zero_copy_only=False).astype(np.float64)

        toks = pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(text, "")), r"\s+")
        flat = toks.flatten()
        counts = toks.value_lengths().to_numpy(zero_copy_only=False).astype(np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        if len(flat):
            dic = flat.dictionary_encode()
            codes = dic.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            vocab = dic.dictionary.to_pylist()
            empty = np.fromiter((v == "" for v in vocab), bool, len(vocab))
            keepm = ~empty[codes]
            codes, trows = codes[keepm], rows[keepm]
            n_tok = np.bincount(trows, minlength=n).astype(np.float64)
            scores = np.zeros((len(self._PRED_LANGS), n), dtype=np.float64)
            denom = np.maximum(n_tok, 1.0)
            for li, lang in enumerate(self._PRED_LANGS):
                vin = np.fromiter((v in LANG_PROFILES[lang] for v in vocab), np.float64, len(vocab))
                scores[li] = np.bincount(trows, weights=vin[codes], minlength=n) / denom
        else:
            n_tok = np.zeros(n, dtype=np.float64)
            scores = np.zeros((len(self._PRED_LANGS), n), dtype=np.float64)
        # strictly-greater update order == argmax first-max (profile order)
        best_i = np.argmax(scores, axis=0)
        best_s = scores[best_i, np.arange(n)]

        cjk = (nchar > 0) & ((n_hangul + n_han) / np.maximum(nchar, 1.0) > 0.1)
        ko = n_hangul >= n_han
        langs = np.asarray(self._PRED_LANGS, dtype=object)[best_i]
        langs = np.where(best_s > 0.05, langs, "und")
        langs = np.where(n_tok == 0, "und", langs)
        score_out = np.where(n_tok == 0, 0.0, best_s)
        langs = np.where(cjk, np.where(ko, "ko", "zh"), langs)
        cjk_score = np.where(ko, n_hangul, n_han) / np.maximum(nchar, 1.0)
        score_out = np.where(cjk, cjk_score, score_out)
        cols = {
            self.id_col: batch.column(self.id_col),
            "lang_pred": pa.array(langs, type=pa.string()),
            "lang_score": pa.array(score_out, type=pa.float64()),
        }
        if self.detail:
            # top-2 PROFILE scores (pre-CJK/und overrides, zeroed for
            # token-less docs): margin = s1 − s2, the confidence signal
            ss = np.sort(scores, axis=0)
            s1 = np.where(n_tok == 0, 0.0, ss[-1])
            s2 = np.where(n_tok == 0, 0.0, ss[-2])
            cols["score1"] = pa.array(s1, type=pa.float64())
            cols["score2"] = pa.array(s2, type=pa.float64())
            cols["margin"] = pa.array(s1 - s2, type=pa.float64())
        return pa.table(cols)


class FingerprintStage:
    """Order-sensitive 64-bit document fingerprint: polynomial rolling hash
    of the token stream, fp = Σ h_i · R^(dl-1-i) mod 2^64 with MD5-derived
    token hashes (``tokenize_md5`` == DuckDB ``md5_number_lower``) —
    deterministic across runs/partitions AND recomputable by the SQL oracle
    as ``list_reduce(tokens, (h, t) -> (h·R + t) mod 2^64)``."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self.tok = Tokenizer()

    _R = np.uint64(0x100000001B3)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        th, _rows, dls64 = self.tok.tokenize_md5(batch.column(self.text_col))
        seg_starts = np.zeros(n, dtype=np.int64)
        if n > 1:
            seg_starts[1:] = np.cumsum(dls64[:-1])
        # vectorized: precompute R powers, weight per position, reduceat
        with np.errstate(over="ignore"):
            max_dl = int(dls64.max()) if n else 0
            powers = np.ones(max(max_dl, 1), dtype=np.uint64)
            np.cumprod(np.full(max_dl - 1, self._R, dtype=np.uint64), out=powers[1:]) if max_dl > 1 else None
            if th.size:
                pos = np.arange(th.size, dtype=np.int64) - np.repeat(seg_starts, dls64)
                pos_from_end = np.repeat(dls64, dls64) - 1 - pos
                contrib = th * powers[pos_from_end]
                safe = np.minimum(seg_starts, th.size - 1)
                sums = np.add.reduceat(contrib, safe)
                sums[dls64 == 0] = 0
            else:
                sums = np.zeros(n, dtype=np.uint64)
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "fingerprint": pa.array(sums.astype(np.int64)),
            }
        )


def token_stats(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    return ds.map_batches(TokenStatsStage(text_col, id_col), batch_format="pyarrow")


def lang_id(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    return ds.map_batches(LangIdStage(text_col, id_col), batch_format="pyarrow")


def fingerprints(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    return ds.map_batches(FingerprintStage(text_col, id_col), batch_format="pyarrow")


class RepetitionStage:
    """Gopher-style per-document repetition signals (Rae et al. 2021,
    "Scaling Language Models", Table A1 — the duplicate-text filters):
    (doc_id, text) → (doc_id, n_tokens, dup_token_frac, top_bigram_frac,
    max_run_len).

    - ``dup_token_frac``  = (n_tokens − n_distinct_tokens) / n_tokens
    - ``top_bigram_frac`` = count of the most frequent token bigram /
      n_bigrams (token analogue of Gopher's top-2-gram character fraction)
    - ``max_run_len``     = longest run of one repeated token

    Fully vectorized: one dictionary-encode pass per batch, then composite
    integer keys + ``np.unique`` / ``np.maximum.at`` — no per-token Python.
    Each row is independent, so the stage partitions trivially.
    """

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        enc = self.tok.tokenize_codes(batch.column(self.text_col).combine_chunks())
        if enc is None:  # non-invertible tokenizer: factorize the flat list
            flat, dls32 = self.tok.tokenize_flat(batch.column(self.text_col).to_pylist())
            import pandas as pd

            codes = pd.factorize(np.asarray(flat, dtype=object))[0].astype(np.int64)
            dls = dls32.astype(np.int64)
            rows = np.repeat(np.arange(n, dtype=np.int64), dls)
            nvocab = int(codes.max()) + 1 if codes.size else 1
        else:
            codes, rows, vocab, dls = enc
            codes = codes.astype(np.int64)
            nvocab = max(len(vocab), 1)

        n_tok = dls.astype(np.int64)
        dup_frac = np.zeros(n, dtype=np.float64)
        top_bg = np.zeros(n, dtype=np.float64)
        max_run = np.zeros(n, dtype=np.int64)
        if codes.size:
            V = np.int64(nvocab)
            # distinct tokens per row: one sort-unique over (row, code) keys
            uniq = np.unique(rows * V + codes)
            n_distinct = np.bincount((uniq // V).astype(np.int64), minlength=n)
            nz = n_tok > 0
            dup_frac[nz] = (n_tok[nz] - n_distinct[nz]) / n_tok[nz]

            # top bigram per row: composite (row, c0, c1) keys where the pair
            # stays inside one row, then max count per row
            if codes.size > 1:
                same = rows[:-1] == rows[1:]
                if same.any():
                    b_rows = rows[:-1][same]
                    bkey = (b_rows * V + codes[:-1][same]) * V + codes[1:][same]
                    ub, cnt = np.unique(bkey, return_counts=True)
                    urow = (ub // (V * V)).astype(np.int64)
                    best = np.zeros(n, dtype=np.int64)
                    np.maximum.at(best, urow, cnt)
                    n_bg = np.bincount(b_rows, minlength=n)
                    bz = n_bg > 0
                    top_bg[bz] = best[bz] / n_bg[bz]

            # longest same-token run per row: boundaries where the code or
            # the row changes; run lengths from boundary diffs
            bound = np.empty(codes.size, dtype=bool)
            bound[0] = True
            bound[1:] = (codes[1:] != codes[:-1]) | (rows[1:] != rows[:-1])
            starts = np.flatnonzero(bound)
            run_len = np.diff(np.append(starts, codes.size))
            np.maximum.at(max_run, rows[starts], run_len)

        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "n_tokens": pa.array(n_tok),
                "dup_token_frac": pa.array(dup_frac),
                "top_bigram_frac": pa.array(top_bg),
                "max_run_len": pa.array(max_run),
            }
        )


class TfidfTopTermsStage:
    """(doc_id, text) → per-doc top-k keywords by tf-idf
    (tfidf = tf · ln(n_docs / df), ties (tfidf desc, term asc)), exploded
    to (doc_id, rank, term, tfidf) rows.

    The (sorted vocab, df) pair arrives as a ray.put broadcast (or the raw
    pair) — the same vocab-sized small side the stats stage reduces;
    scoring is composite integer keys + one lexsort per batch, no
    per-token Python."""

    def __init__(self, vocab_ref, n_docs: int, k: int, text_col: str = "text", id_col: str = "doc_id"):
        self.vocab_ref = vocab_ref
        self.n_docs = float(n_docs)
        self.k = k
        self.text_col = text_col
        self.id_col = id_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        terms, df = cached_ref(self.vocab_ref)  # terms: object ndarray, lexicographically sorted
        n = batch.num_rows
        enc = self.tok.tokenize_codes(batch.column(self.text_col).combine_chunks())
        doc_ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        if enc is None or enc[0].size == 0:
            return pa.table(
                {
                    self.id_col: pa.array(np.zeros(0, np.int64)),
                    "rank": pa.array(np.zeros(0, np.int64)),
                    "term": pa.array([], type=pa.string()),
                    "tfidf": pa.array(np.zeros(0, np.float64)),
                }
            )
        codes, rows, vocab, _dls = enc
        codes = codes.astype(np.int64)
        V = np.int64(max(len(vocab), 1))
        ukey, tf = np.unique(rows * V + codes, return_counts=True)
        urow, ucode = (ukey // V).astype(np.int64), (ukey % V).astype(np.int64)
        # batch-local codes → global lexical rank (and df) via one
        # searchsorted over the broadcast sorted vocab.  The batch
        # dictionary may hold entries no code references (e.g. the dropped
        # empty-split artifact) — only codes in use must resolve.
        uniq_terms = np.asarray(vocab.to_pylist(), dtype=object)
        vpos_of_code = np.minimum(np.searchsorted(terms, uniq_terms), terms.size - 1)
        used = np.unique(ucode)
        if (terms[vpos_of_code[used]] != uniq_terms[used]).any():
            raise ValueError("terms missing from broadcast vocab")
        vpos = vpos_of_code[ucode]
        tfidf = tf.astype(np.float64) * np.log(self.n_docs / df[vpos].astype(np.float64))
        # per-row top-k by (tfidf desc, lexical term asc): one lexsort
        order = np.lexsort((vpos, -tfidf, urow))
        so_row = urow[order]
        counts = np.bincount(so_row, minlength=n)
        first = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=first[1:])
        rnk = np.arange(so_row.size, dtype=np.int64) - first[so_row]
        keep = rnk < self.k
        sel = order[keep]
        return pa.table(
            {
                self.id_col: pa.array(doc_ids[urow[sel]]),
                "rank": pa.array(rnk[keep] + 1),
                "term": pa.array(uniq_terms[ucode[sel]], type=pa.string()),
                "tfidf": pa.array(tfidf[sel]),
            }
        )


def tfidf_top_terms(
    ds: Dataset, k: int = 5, text_col: str = "text", id_col: str = "doc_id"
) -> Dataset:
    """Keyword extraction: per-doc top-k terms by tf-idf.

    Pass 1 computes the global df table (the vocab-sized driver reduce
    shared with the stats stage — ``compute_vocab``); pass 2 streams the
    corpus through a broadcast-scored ``map_batches``.  No shuffle touches
    the corpus; the only exchanged bytes are the df combiner partials."""
    import ray

    from ..stages.stats import compute_vocab

    def doc_terms_shim(batch: pa.Table) -> pa.Table:
        from ..stages.encode import term_count_table

        terms, tfs, dls = term_count_table(batch.column(text_col).to_pylist(), Tokenizer())
        return pa.table({"terms": terms, "dl": pa.array(dls)})

    vocab = compute_vocab(ds.map_batches(doc_terms_shim, batch_format="pyarrow"))
    n_docs = ds.count()
    terms_sorted = np.asarray(vocab["term"].to_numpy(), dtype=object)
    df = vocab["df"].to_numpy().astype(np.int64)
    ref = ray.put((terms_sorted, df))
    return ds.map_batches(TfidfTopTermsStage(ref, n_docs, k, text_col, id_col), batch_format="pyarrow")


def repetition_stats(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    return ds.map_batches(RepetitionStage(text_col, id_col), batch_format="pyarrow")


class CurationStage:
    """Fused single-pass pre-training curation filter (the Gopher-style
    keep/drop decision): ONE tokenize per batch computes n_tokens,
    stopword_ratio, dup_token_frac and max_run_len, then applies the
    thresholds — at 100 TB the whole keep/drop decision is one streaming
    map_batches, not a join of per-signal passes.

    Emits only the kept rows: (doc_id, n_tokens, dup_token_frac,
    stopword_ratio, max_run_len)."""

    def __init__(
        self,
        min_tokens: int = 25,
        max_dup_frac: float = 0.6,
        min_stopword: float = 0.02,
        max_stopword: float = 0.12,
        max_run: int = 2,
        text_col: str = "text",
        id_col: str = "doc_id",
        passthrough: tuple[str, ...] = (),
    ):
        self.min_tokens = min_tokens
        self.max_dup_frac = max_dup_frac
        self.min_stopword = min_stopword
        self.max_stopword = max_stopword
        self.max_run = max_run
        self.text_col = text_col
        self.id_col = id_col
        self.passthrough = tuple(passthrough)
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        enc = self.tok.tokenize_codes(batch.column(self.text_col).combine_chunks())
        n_tok = np.zeros(n, dtype=np.int64)
        dup_frac = np.zeros(n, dtype=np.float64)
        sw_ratio = np.zeros(n, dtype=np.float64)
        max_run = np.zeros(n, dtype=np.int64)
        if enc is not None and enc[0].size:
            codes, rows, vocab, dls = enc
            codes = codes.astype(np.int64)
            n_tok = dls.astype(np.int64)
            V = np.int64(max(len(vocab), 1))
            uniq = np.unique(rows * V + codes)
            n_distinct = np.bincount((uniq // V).astype(np.int64), minlength=n)
            nz = n_tok > 0
            dup_frac[nz] = (n_tok[nz] - n_distinct[nz]) / n_tok[nz]
            vstop = np.fromiter((v in EN_STOPWORDS for v in vocab.to_pylist()), np.float64, len(vocab))
            sw_ratio[nz] = np.bincount(rows, weights=vstop[codes], minlength=n)[nz] / n_tok[nz]
            bound = np.empty(codes.size, dtype=bool)
            bound[0] = True
            bound[1:] = (codes[1:] != codes[:-1]) | (rows[1:] != rows[:-1])
            starts = np.flatnonzero(bound)
            run_len = np.diff(np.append(starts, codes.size))
            np.maximum.at(max_run, rows[starts], run_len)
        keep = (
            (n_tok >= self.min_tokens)
            & (dup_frac <= self.max_dup_frac)
            & (sw_ratio >= self.min_stopword)
            & (sw_ratio <= self.max_stopword)
            & (max_run <= self.max_run)
        )
        cols = {
            self.id_col: batch.column(self.id_col),
            "n_tokens": pa.array(n_tok),
            "dup_token_frac": pa.array(dup_frac),
            "stopword_ratio": pa.array(sw_ratio),
            "max_run_len": pa.array(max_run),
        }
        for c in self.passthrough:  # carry original columns (curated-corpus write path)
            cols[c] = batch.column(c)
        return pa.table(cols).filter(pa.array(keep))


def curation_filter(ds: Dataset, text_col: str = "text", id_col: str = "doc_id", **thresholds) -> Dataset:
    return ds.map_batches(CurationStage(text_col=text_col, id_col=id_col, **thresholds), batch_format="pyarrow")


class ChunkStage:
    """(doc_id, text) → overlapping fixed-size token windows
    (doc_id, chunk_idx, n_tokens, chunk_text) — the context-window
    chunking step that turns variable-length documents into
    training-example-sized pieces (window W tokens, stride S ≤ W; the
    last window is allowed to be short, empty docs yield no chunks).

    Fully vectorized: the flat token stream stays an Arrow StringArray
    (``vocab.take(codes)``) and every chunk is materialized with ONE
    gather + one ``binary_join`` — no per-chunk Python.  Each row chunks
    independently, so the stage streams at any scale."""

    def __init__(self, window: int = 16, stride: int = 12, text_col: str = "text", id_col: str = "doc_id"):
        if not (0 < stride <= window):
            raise ValueError("require 0 < stride <= window")
        self.window = window
        self.stride = stride
        self.text_col = text_col
        self.id_col = id_col
        self.tok = Tokenizer()

    def _empty(self, id_type: pa.DataType) -> pa.Table:
        return pa.table(
            {
                self.id_col: pa.array([], type=id_type),
                "chunk_idx": pa.array([], type=pa.int64()),
                "n_tokens": pa.array([], type=pa.int64()),
                "chunk_text": pa.array([], type=pa.string()),
            }
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        id_arr = batch.column(self.id_col).combine_chunks()
        enc = self.tok.tokenize_codes(batch.column(self.text_col).combine_chunks())
        if enc is None:  # non-invertible pattern: Python tokenize fallback
            flat_list, dls32 = self.tok.tokenize_flat(batch.column(self.text_col).to_pylist())
            flat_tokens = pa.array(flat_list, type=pa.string())
            dls = dls32.astype(np.int64)
        else:
            codes, _rows, vocab, dls = enc
            flat_tokens = vocab.take(pa.array(codes))
        if n == 0 or int(dls.sum()) == 0:
            return self._empty(id_arr.type)
        W, S = self.window, self.stride
        nch = np.where(dls > 0, 1 + np.ceil(np.maximum(dls - W, 0) / S).astype(np.int64), 0)
        total = int(nch.sum())
        chunk_row = np.repeat(np.arange(n, dtype=np.int64), nch)
        excl = np.zeros(n, dtype=np.int64)
        np.cumsum(nch[:-1], out=excl[1:])
        chunk_idx = np.arange(total, dtype=np.int64) - excl[chunk_row]
        start_local = chunk_idx * S
        lengths = np.minimum(start_local + W, dls[chunk_row]) - start_local
        seg_starts = np.zeros(n, dtype=np.int64)
        np.cumsum(dls[:-1], out=seg_starts[1:])
        base = seg_starts[chunk_row] + start_local
        lex = np.zeros(total, dtype=np.int64)
        np.cumsum(lengths[:-1], out=lex[1:])
        gather = np.repeat(base - lex, lengths) + np.arange(int(lengths.sum()), dtype=np.int64)
        chunk_toks = flat_tokens.take(pa.array(gather))
        offsets = np.zeros(total + 1, dtype=np.int32)
        np.cumsum(lengths, out=offsets[1:])
        if isinstance(chunk_toks, pa.ChunkedArray):
            chunk_toks = chunk_toks.combine_chunks()
        lst = pa.ListArray.from_arrays(pa.array(offsets), chunk_toks)
        return pa.table(
            {
                self.id_col: id_arr.take(pa.array(chunk_row)),
                "chunk_idx": pa.array(chunk_idx),
                "n_tokens": pa.array(lengths),
                "chunk_text": pc.binary_join(lst, " "),
            }
        )


def chunk_tokens(
    ds: Dataset,
    window: int = 16,
    stride: int = 12,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Fixed-size token-window chunking (the pre-training context-window
    splitter): one streaming ``map_batches``, no exchange."""
    return ds.map_batches(ChunkStage(window, stride, text_col, id_col), batch_format="pyarrow")


class UnigramPartialStage:
    """(doc_id, text) → per-batch combined unigram counts (term, cnt) plus
    one summary row (term=NULL, cnt=n_bigrams_in_batch) — the combiner side
    of the corpus-frequency reduce (vocab-bounded, so the final combine is
    a driver reduce exactly like the stats stage's df table)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        enc = self.tok.tokenize_codes(batch.column(self.text_col).combine_chunks())
        if enc is None:
            flat, dls32 = self.tok.tokenize_flat(batch.column(self.text_col).to_pylist())
            import pandas as pd

            codes, uniq = pd.factorize(np.asarray(flat, dtype=object))
            vocab = pa.array(uniq, type=pa.string())
            dls = dls32.astype(np.int64)
        else:
            codes, _rows, vocab, dls = enc
        n_bg = int(np.maximum(dls - 1, 0).sum())
        cnt = np.bincount(codes, minlength=len(vocab)).astype(np.int64) if len(vocab) else np.zeros(0, np.int64)
        terms = pa.concat_arrays([vocab.cast(pa.string()), pa.array([None], type=pa.string())])
        return pa.table({"term": terms, "cnt": pa.array(np.append(cnt, n_bg))})


class BigramPartialStage:
    """(doc_id, text) → per-batch combined bigram counts
    (bucket, term_a, term_b, cnt).  Pairs never cross a row; the bucket is
    a coarse hash of the pair (md5-based, ~n_buckets groups) so the final
    exchange groups on ~100s of buckets, never on raw pair keys."""

    def __init__(self, n_buckets: int = 256, text_col: str = "text"):
        self.n_buckets = np.uint64(n_buckets)
        self.text_col = text_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.hashing import md5_u64

        empty = pa.table(
            {
                "bucket": pa.array([], type=pa.int64()),
                "ha": pa.array([], type=pa.int64()),
                "hb": pa.array([], type=pa.int64()),
                "cnt": pa.array([], type=pa.int64()),
            }
        )
        enc = self.tok.tokenize_codes(batch.column(self.text_col).combine_chunks())
        if enc is None:
            raise NotImplementedError("bigram PMI requires an invertible (char-class) token pattern")
        codes, rows, vocab, _dls = enc
        if codes.size < 2:
            return empty
        same = rows[:-1] == rows[1:]
        if not same.any():
            return empty
        V = np.int64(max(len(vocab), 1))
        key = codes[:-1][same] * V + codes[1:][same]
        ukey, cnt = np.unique(key, return_counts=True)
        a_codes, b_codes = (ukey // V).astype(np.int64), (ukey % V).astype(np.int64)
        # ship md5 term HASHES, not strings — the exchange carries 8 B/term
        # and the bucket kernel recovers strings from the broadcast unigram
        # table (term↔hash is collision-free at vocab scale by md5)
        vh = md5_u64(vocab.to_pylist())
        with np.errstate(over="ignore"):
            bucket = ((vh[a_codes] * _TRIGRAM_R + vh[b_codes]) % self.n_buckets).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(bucket),
                "ha": pa.array(vh[a_codes].view(np.int64)),
                "hb": pa.array(vh[b_codes].view(np.int64)),
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )


def bigram_pmi_top(
    ds: Dataset,
    k: int = 30,
    min_count: int = 3,
    n_buckets: int = 256,
    text_col: str = "text",
    shuffle_width: int | None = None,
):
    """Corpus-level collocation mining: top-k token bigrams by PMI
    (pmi = ln(p(ab) / (p(a)·p(b))) with p(ab)=c_ab/n_bigrams,
    p(a)=c_a/n_tokens), pair count ≥ min_count, ties (pmi desc, term_a,
    term_b).  Returns a pandas DataFrame (rank, term_a, term_b,
    pair_count, pmi).

    Scale shape: unigram counts are a vocab-bounded combiner + driver
    reduce (broadcast back via ``ray.put``); bigram counts are per-batch
    combined partials exchanged on ~n_buckets coarse hash buckets (never
    on raw pair keys — Ray finalizes each group in Python, so pair-keyed
    groups are a pathology); each bucket computes PMI vectorized and emits
    its local top-k, and only n_buckets·k rows reach the driver."""
    import pandas as pd

    import ray

    # pass 1: unigram counts + totals (combiner partials, driver reduce)
    parts = [
        b
        for b in ds.map_batches(UnigramPartialStage(text_col), batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
        if b.num_rows
    ]
    if not parts:
        return pd.DataFrame(columns=["rank", "term_a", "term_b", "pair_count", "pmi"])
    allp = pa.concat_tables(parts)
    isnull = pc.is_null(allp.column("term")).to_numpy(zero_copy_only=False)
    cnts = allp.column("cnt").to_numpy(zero_copy_only=False)
    n_bigrams = float(cnts[isnull].sum())
    uni = (
        pd.DataFrame({"term": allp.column("term").to_pandas(), "cnt": cnts})
        .dropna()
        .groupby("term", sort=True)["cnt"]
        .sum()
    )
    uni_terms = np.asarray(uni.index.to_numpy(), dtype=object)
    uni_cnt = uni.to_numpy().astype(np.float64)
    n_tokens = float(uni_cnt.sum())
    if n_bigrams == 0:
        return pd.DataFrame(columns=["rank", "term_a", "term_b", "pair_count", "pmi"])
    # broadcast the hash-sorted unigram table — the bucket kernel maps the
    # exchanged md5 hashes back to (term string, count) by searchsorted
    from ..functions.hashing import md5_u64

    uh = md5_u64(list(uni_terms))
    horder = np.argsort(uh)
    ref = ray.put((uh[horder], uni_terms[horder], uni_cnt[horder], n_tokens, n_bigrams))

    empty_topk = pa.table(
        {
            "term_a": pa.array([], type=pa.string()),
            "term_b": pa.array([], type=pa.string()),
            "pair_count": pa.array([], type=pa.int64()),
            "pmi": pa.array([], type=pa.float64()),
        }
    )

    def bucket_topk(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return empty_topk
        hsort, uterms, ucnt, n_tok, n_bg = cached_ref(ref)
        ha = g.column("ha").to_numpy(zero_copy_only=False)
        hb = g.column("hb").to_numpy(zero_copy_only=False)
        cnt = g.column("cnt").to_numpy(zero_copy_only=False)
        # combine batch partials per (ha, hb): lexsort + run-length sum
        order = np.lexsort((hb, ha))
        sa, sb, sc = ha[order], hb[order], cnt[order]
        new = np.empty(sa.size, dtype=bool)
        new[0] = True
        new[1:] = (sa[1:] != sa[:-1]) | (sb[1:] != sb[:-1])
        seg = np.cumsum(new) - 1
        c_ab = np.bincount(seg, weights=sc, minlength=int(seg[-1]) + 1)
        sa, sb = sa[new], sb[new]
        keep = c_ab >= min_count
        if not keep.any():
            return empty_topk
        sa, sb, c_ab = sa[keep], sb[keep], c_ab[keep]
        ia = np.searchsorted(hsort, sa.view(np.uint64))
        ib = np.searchsorted(hsort, sb.view(np.uint64))
        ta, tb = uterms[ia], uterms[ib]
        pmi = np.log(c_ab * n_tok * n_tok / (n_bg * ucnt[ia] * ucnt[ib]))
        order = np.lexsort((tb, ta, -pmi))[:k]
        return pa.table(
            {
                "term_a": pa.array(ta[order], type=pa.string()),
                "term_b": pa.array(tb[order], type=pa.string()),
                "pair_count": pa.array(c_ab[order].astype(np.int64)),
                "pmi": pa.array(pmi[order]),
            }
        )

    partials = ds.map_batches(BigramPartialStage(n_buckets, text_col), batch_format="pyarrow")
    if shuffle_width:
        partials = partials.repartition(shuffle_width)
    cand = partials.groupby("bucket").map_groups(bucket_topk, batch_format="pyarrow").to_pandas()
    order = np.lexsort(
        (cand["term_b"].to_numpy(dtype=object), cand["term_a"].to_numpy(dtype=object), -cand["pmi"].to_numpy())
    )[:k]
    out = cand.iloc[order].reset_index(drop=True)
    out.insert(0, "rank", np.arange(1, len(out) + 1, dtype=np.int64))
    return out


def textrank_keywords(
    ds: Dataset,
    k: int = 30,
    damping: float = 0.85,
    iters: int = 3,
    n_buckets: int = 256,
    text_col: str = "text",
    shuffle_width: int | None = None,
):
    """Corpus-level TextRank keyword extraction (Mihalcea & Tarau 2004):
    PageRank over the undirected token co-occurrence graph (adjacent-token
    edges, w(a,b) = count(a→b) + count(b→a), self-pairs dropped), ``iters``
    power iterations of r_i = (1−d) + d·Σ_j (w_ij/deg_j)·r_j from r = 1,
    top-k terms by (rank desc, term asc).  Deterministic init/ties, so the
    iterations UNROLL into a SQL oracle (the kmeans_clusters trick).

    Scale shape: the heavy part — bigram counting over the corpus — is the
    SAME coarse-bucket hash exchange as :func:`bigram_pmi_top` (md5 hashes
    cross the wire, strings recovered per bucket from the broadcast
    unigram table); the aggregated unique-edge list is VOCAB²-bounded (in
    practice ≈ observed bigram types), so the power iterations run on the
    driver like the k·d k-means reduce.  At a vocabulary where even the
    unique-edge list doesn't fit, the same iterations become edge-bucket
    map passes with rank broadcast per round — the documented seam."""
    import pandas as pd

    import ray

    from ..functions.hashing import md5_u64

    # pass 1: unigram vocab (combiner partials) — only for hash→string
    # recovery inside the bucket kernel; counts themselves are unused
    parts = [
        b
        for b in ds.map_batches(UnigramPartialStage(text_col), batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
        if b.num_rows
    ]
    empty = pd.DataFrame(columns=["rank", "term", "score_r"])
    if not parts:
        return empty
    allp = pa.concat_tables(parts)
    terms = pd.Index(allp.column("term").to_pandas()).dropna().unique().to_numpy(dtype=object)
    if terms.size == 0:
        return empty
    uh = md5_u64(list(terms))
    horder = np.argsort(uh)
    ref = ray.put((uh[horder], terms[horder]))

    empty_edges = pa.table(
        {
            "term_a": pa.array([], type=pa.string()),
            "term_b": pa.array([], type=pa.string()),
            "cnt": pa.array([], type=pa.int64()),
        }
    )

    def bucket_edges(g: pa.Table) -> pa.Table:
        """Aggregate this bucket's directed-pair partials to unique edges
        and recover the term strings — full list, no top-k (the rank mass
        of dropped edges would corrupt every neighbor)."""
        if g.num_rows == 0:
            return empty_edges
        hsort, uterms = cached_ref(ref)
        ha = g.column("ha").to_numpy(zero_copy_only=False)
        hb = g.column("hb").to_numpy(zero_copy_only=False)
        cnt = g.column("cnt").to_numpy(zero_copy_only=False)
        keep = ha != hb  # TextRank drops self-loops
        ha, hb, cnt = ha[keep], hb[keep], cnt[keep]
        if ha.size == 0:
            return empty_edges
        order = np.lexsort((hb, ha))
        sa, sb, sc = ha[order], hb[order], cnt[order]
        new = np.empty(sa.size, dtype=bool)
        new[0] = True
        new[1:] = (sa[1:] != sa[:-1]) | (sb[1:] != sb[:-1])
        seg = np.cumsum(new) - 1
        c_ab = np.bincount(seg, weights=sc, minlength=int(seg[-1]) + 1)
        sa, sb = sa[new], sb[new]
        ia = np.searchsorted(hsort, sa.view(np.uint64))
        ib = np.searchsorted(hsort, sb.view(np.uint64))
        return pa.table(
            {
                "term_a": pa.array(uterms[ia], type=pa.string()),
                "term_b": pa.array(uterms[ib], type=pa.string()),
                "cnt": pa.array(c_ab.astype(np.int64)),
            }
        )

    partials = ds.map_batches(BigramPartialStage(n_buckets, text_col), batch_format="pyarrow")
    if shuffle_width:
        partials = partials.repartition(shuffle_width)
    ed = partials.groupby("bucket").map_groups(bucket_edges, batch_format="pyarrow").to_pandas()
    if ed.empty:
        return empty
    # undirected fold: w(a,b) = c(a→b) + c(b→a) on the canonical (min,max)
    # key — directed mirrors land in different hash buckets, so the fold
    # happens here on the vocab²-bounded unique-edge list
    a = ed["term_a"].to_numpy(dtype=object)
    b = ed["term_b"].to_numpy(dtype=object)
    lo = np.where(a < b, a, b)
    hi = np.where(a < b, b, a)
    und = (
        pd.DataFrame({"u": lo, "v": hi, "w": ed["cnt"].to_numpy().astype(np.float64)})
        .groupby(["u", "v"], sort=True, as_index=False)["w"]
        .sum()
    )
    nodes = pd.Index(np.unique(np.concatenate([und["u"].to_numpy(object), und["v"].to_numpy(object)])))
    n = len(nodes)
    src = np.concatenate([nodes.get_indexer(und["u"]), nodes.get_indexer(und["v"])])
    dst = np.concatenate([nodes.get_indexer(und["v"]), nodes.get_indexer(und["u"])])
    w = np.concatenate([und["w"].to_numpy()] * 2)
    deg = np.bincount(src, weights=w, minlength=n)
    r = np.ones(n, dtype=np.float64)
    for _ in range(iters):
        r = (1.0 - damping) + damping * np.bincount(
            dst, weights=w / deg[src] * r[src], minlength=n
        )
    top = np.lexsort((np.asarray(nodes, dtype=object), -r))[:k]
    return pd.DataFrame(
        {
            "rank": np.arange(1, top.size + 1, dtype=np.int64),
            "term": np.asarray(nodes, dtype=object)[top],
            "score_r": np.round(r[top], 6),
        }
    )


# rolling-hash radix shared with FingerprintStage / the SQL oracles
_TRIGRAM_R = np.uint64(0x100000001B3)


def _row_trigrams(th: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(trigram hashes u64, owning row) for every token trigram that stays
    inside one row.  h = ((h0·R + h1)·R + h2) mod 2^64 with MD5 token hashes
    — exactly replayable in SQL from ``md5_number_lower``."""
    if th.size < 3:
        return np.zeros(0, np.uint64), np.zeros(0, np.int64)
    ok = rows[:-2] == rows[2:]
    with np.errstate(over="ignore"):
        trig = (th[:-2] * _TRIGRAM_R + th[1:-1]) * _TRIGRAM_R + th[2:]
    return trig[ok], rows[:-2][ok]


class TrigramSetStage:
    """(id, text) → per-row DISTINCT trigram hashes as a list column
    (used for the benchmark side of the contamination check)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        th, rows, _dls = self.tok.tokenize_md5(batch.column(self.text_col).combine_chunks())
        trig, trow = _row_trigrams(th, rows)
        # batch-level distinct is enough here — the driver re-uniques
        return pa.table({"trig": pa.array(np.unique(trig).view(np.int64))})


class ContaminationStage:
    """Benchmark-contamination scorer (the GPT-3/PaLM-style n-gram
    decontamination check): for each corpus document, the fraction of its
    DISTINCT token trigrams that appear anywhere in the benchmark set.

    The benchmark trigram set arrives as a ``ray.put`` broadcast (a sorted
    u64 array — eval suites are MB-scale even when the corpus is 100 TB),
    so membership is one ``searchsorted`` per batch; no shuffle touches the
    corpus side.  ``bench_ref`` may also be the raw array."""

    def __init__(self, bench_ref, text_col: str = "text", id_col: str = "doc_id"):
        self.bench_ref = bench_ref
        self.text_col = text_col
        self.id_col = id_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        bench = cached_ref(self.bench_ref)
        n = batch.num_rows
        th, rows, _dls = self.tok.tokenize_md5(batch.column(self.text_col).combine_chunks())
        trig, trow = _row_trigrams(th, rows)
        n_tri = np.zeros(n, dtype=np.int64)
        n_hit = np.zeros(n, dtype=np.int64)
        if trig.size:
            # per-row distinct trigrams: sort by (row, trig), drop adjacent dups
            order = np.lexsort((trig, trow))
            st, sr = trig[order], trow[order]
            keep = np.empty(st.size, dtype=bool)
            keep[0] = True
            keep[1:] = (st[1:] != st[:-1]) | (sr[1:] != sr[:-1])
            st, sr = st[keep], sr[keep]
            n_tri = np.bincount(sr, minlength=n)
            if bench.size:
                ins = np.searchsorted(bench, st)
                inb = (ins < bench.size) & (bench[np.minimum(ins, bench.size - 1)] == st)
                n_hit = np.bincount(sr[inb], minlength=n)
        contamination = np.where(n_tri > 0, n_hit / np.maximum(n_tri, 1), 0.0)
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "n_trigrams": pa.array(n_tri),
                "n_hit": pa.array(n_hit),
                "contamination": pa.array(contamination),
            }
        )


def contamination_check(
    corpus: Dataset,
    benchmark: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Score every corpus doc against the benchmark's distinct-trigram set.

    Benchmark pass: distributed trigram extraction, driver union of the
    per-batch distinct sets (the benchmark is the SMALL side by contract),
    one ``ray.put``.  Corpus pass: streaming broadcast-membership
    ``map_batches`` — the 100-TB side is never shuffled."""
    import ray

    parts = [
        b.column("trig").to_numpy(zero_copy_only=False).view(np.uint64)
        for b in benchmark.map_batches(TrigramSetStage(text_col, id_col), batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
        if b.num_rows
    ]
    # np.unique on the uint64 dtype keeps the array in the unsigned order
    # that ContaminationStage's searchsorted assumes
    tri = np.unique(np.concatenate(parts)) if parts else np.zeros(0, np.uint64)
    ref = ray.put(tri)
    return corpus.map_batches(ContaminationStage(ref, text_col, id_col), batch_format="pyarrow")


# ------------------------------------------------- duplicate-passage detection
def _row_windows(th: np.ndarray, rows: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(window hashes u64, owning row) for every ``w``-token window that
    stays inside one row — the ``w``-ary generalization of
    :func:`_row_trigrams` (same fold, same radix, SQL-replayable)."""
    if w < 2:
        raise ValueError("require window >= 2")
    if th.size < w:
        return np.zeros(0, np.uint64), np.zeros(0, np.int64)
    n = th.size - w + 1
    ok = rows[:n] == rows[w - 1 :]
    with np.errstate(over="ignore"):
        h = th[:n].copy()
        for k in range(1, w):
            h *= _TRIGRAM_R
            h += th[k : n + k]
    return h[ok], rows[:n][ok]


class DupSpanWindowStage:
    """(doc_id, text) → per-batch combined window-hash counts
    (bucket, whash, doc_id, cnt) for every ``window``-token span — the map
    side of exact substring (repeated-passage) detection à la
    "Deduplicating Training Data Makes Language Models Better" (Lee et
    al., 2022).  The bucket is ``whash % n_buckets`` so the one big
    exchange groups on ~n_buckets coarse keys, never on raw span hashes."""

    def __init__(self, window: int = 5, n_buckets: int = 1024, text_col: str = "text", id_col: str = "doc_id"):
        if window < 2:
            raise ValueError("require window >= 2")
        self.window = window
        self.n_buckets = np.uint64(n_buckets)
        self.text_col = text_col
        self.id_col = id_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        th, rows, _dls = self.tok.tokenize_md5(batch.column(self.text_col).combine_chunks())
        wh, wrow = _row_windows(th, rows, self.window)
        if wh.size == 0:
            return pa.table(
                {
                    "bucket": pa.array([], type=pa.int32()),
                    "whash": pa.array([], type=pa.int64()),
                    self.id_col: pa.array([], type=pa.int64()),
                    "cnt": pa.array([], type=pa.int64()),
                }
            )
        doc = ids[wrow]
        # combine per (doc, whash) within the batch: lexsort + run-length
        order = np.lexsort((wh, doc))
        sd, sh = doc[order], wh[order]
        new = np.empty(sd.size, dtype=bool)
        new[0] = True
        new[1:] = (sd[1:] != sd[:-1]) | (sh[1:] != sh[:-1])
        idx = np.flatnonzero(new)
        cnt = np.diff(np.append(idx, sd.size))
        return pa.table(
            {
                "bucket": pa.array((sh[idx] % self.n_buckets).astype(np.int32)),
                "whash": pa.array(sh[idx].view(np.int64)),
                self.id_col: pa.array(sd[idx]),
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )


def duplicate_spans(
    ds: Dataset,
    window: int = 5,
    n_buckets: int = 1024,
    text_col: str = "text",
    id_col: str = "doc_id",
    shuffle_width: int | None = None,
) -> Dataset:
    """Per-doc duplicated-span stats: for every ``window``-token span of
    every doc, is the identical span present in ≥2 DISTINCT docs?  Returns
    (doc_id, n_windows, n_dup_windows, dup_frac) for docs with ≥1 window
    (< window tokens → no row, same as the SQL oracle's length filter).

    Scale shape (the Lee-et-al. exact-substring-dedup signal without a
    suffix array): the giant span stream is exchanged exactly ONCE, on
    ~n_buckets coarse hash buckets of the span hash (bucket is a function
    of whash, so each bucket sees every occurrence of its spans globally
    — distinct-doc counts are exact).  Each bucket emits per-doc partials
    (n_windows, n_dup) — the denominator rides the same partials since
    every span lands in exactly one bucket — and the tiny partial table is
    re-aggregated on doc-hash coarse buckets.  No broadcast of the dup-set
    anywhere: at 100 TB the duplicated-span set is itself corpus-scale."""

    empty_partials = pa.table(
        {
            "dbucket": pa.array([], type=pa.int32()),
            id_col: pa.array([], type=pa.int64()),
            "n_win": pa.array([], type=pa.int64()),
            "n_dup": pa.array([], type=pa.int64()),
        }
    )

    def bucket_partials(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return empty_partials
        wh = g.column("whash").to_numpy(zero_copy_only=False).view(np.uint64)
        doc = g.column(id_col).to_numpy(zero_copy_only=False)
        cnt = g.column("cnt").to_numpy(zero_copy_only=False)
        # combine batch partials per (whash, doc)
        order = np.lexsort((doc, wh))
        sh, sd, sc = wh[order], doc[order], cnt[order]
        new = np.empty(sh.size, dtype=bool)
        new[0] = True
        new[1:] = (sh[1:] != sh[:-1]) | (sd[1:] != sd[:-1])
        seg = np.cumsum(new) - 1
        n_seg = int(seg[-1]) + 1
        seg_cnt = np.bincount(seg, weights=sc, minlength=n_seg).astype(np.int64)
        seg_doc = sd[new]
        seg_hash = sh[new]
        # distinct-doc count per whash over the (now unique) (whash, doc) rows
        hnew = np.empty(n_seg, dtype=bool)
        hnew[0] = True
        hnew[1:] = seg_hash[1:] != seg_hash[:-1]
        hseg = np.cumsum(hnew) - 1
        ndocs = np.bincount(hseg, minlength=int(hseg[-1]) + 1)
        dup = ndocs[hseg] >= 2
        # per-doc partials
        udoc, dinv = np.unique(seg_doc, return_inverse=True)
        n_win = np.bincount(dinv, weights=seg_cnt, minlength=udoc.size).astype(np.int64)
        n_dup = np.bincount(dinv[dup], weights=seg_cnt[dup], minlength=udoc.size).astype(np.int64)
        return pa.table(
            {
                "dbucket": pa.array(((udoc.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(n_buckets)).astype(np.int32)),
                id_col: pa.array(udoc),
                "n_win": pa.array(n_win),
                "n_dup": pa.array(n_dup),
            }
        )

    def doc_final(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "n_windows": pa.array([], type=pa.int64()),
                    "n_dup_windows": pa.array([], type=pa.int64()),
                    "dup_frac": pa.array([], type=pa.float64()),
                }
            )
        doc = g.column(id_col).to_numpy(zero_copy_only=False)
        udoc, dinv = np.unique(doc, return_inverse=True)
        n_win = np.bincount(dinv, weights=g.column("n_win").to_numpy(zero_copy_only=False), minlength=udoc.size).astype(np.int64)
        n_dup = np.bincount(dinv, weights=g.column("n_dup").to_numpy(zero_copy_only=False), minlength=udoc.size).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(udoc),
                "n_windows": pa.array(n_win),
                "n_dup_windows": pa.array(n_dup),
                "dup_frac": pa.array(n_dup / np.maximum(n_win, 1)),
            }
        )

    spans = ds.map_batches(DupSpanWindowStage(window, n_buckets, text_col, id_col), batch_format="pyarrow")
    # shuffle_width bounds the sort-exchange fan-out (the all-to-all costs
    # O(partitions²) tiny tasks; at small inputs 64×64 is pure overhead)
    if shuffle_width:
        spans = spans.repartition(shuffle_width)
    partials = spans.groupby("bucket").map_groups(bucket_partials, batch_format="pyarrow")
    if shuffle_width:
        partials = partials.repartition(shuffle_width)
    return partials.groupby("dbucket").map_groups(doc_final, batch_format="pyarrow")


# -------------------------------------------------- unigram-LM quality scoring
class UnigramCountStage:
    """(text) → per-batch combined (thash, cnt) token-hash counts — the
    combiner side of the corpus unigram-LM fit (md5 token hashes, so no
    strings cross the wire and the SQL oracle can count by term)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        th, _rows, _dls = self.tok.tokenize_md5(batch.column(self.text_col).combine_chunks())
        uh, cnt = np.unique(th, return_counts=True)
        return pa.table({"thash": pa.array(uh.view(np.int64)), "cnt": pa.array(cnt.astype(np.int64))})


class UnigramScoreStage:
    """Streaming scorer: per-doc cross-entropy under the corpus unigram LM
    (the CCNet-style perplexity quality signal, with the corpus itself as
    the LM).  The (sorted token-hash → log-prob) table arrives as one
    ``ray.put`` broadcast (or the raw pair) — vocab-bounded, small even at
    100 TB."""

    def __init__(
        self,
        lm_ref,
        text_col: str = "text",
        id_col: str = "doc_id",
        keep_cols: tuple[str, ...] = (),
    ):
        self.lm_ref = lm_ref
        self.text_col = text_col
        self.id_col = id_col
        self.keep_cols = tuple(keep_cols)
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        hashes, logp = cached_ref(self.lm_ref)
        n = batch.num_rows
        th, rows, dls = self.tok.tokenize_md5(batch.column(self.text_col).combine_chunks())
        ce = np.zeros(n, dtype=np.float64)
        if th.size:
            pos = np.searchsorted(hashes, th)
            pos = np.minimum(pos, max(hashes.size - 1, 0))
            lp = np.where(hashes[pos] == th, logp[pos], 0.0)  # OOV: logp 0 (scored corpus ⊆ fit corpus)
            tot = np.bincount(rows, weights=lp, minlength=n)
            ce = np.where(dls > 0, -tot / np.maximum(dls, 1), 0.0)
        cols = {
            self.id_col: batch.column(self.id_col),
            "n_tokens": pa.array(dls.astype(np.int64)),
            "cross_entropy": pa.array(ce),
            "ppl": pa.array(np.exp(ce)),
        }
        for c in self.keep_cols:
            cols[c] = batch.column(c)
        return pa.table(cols)


def unigram_lm_scores(
    ds: Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    keep_cols: tuple[str, ...] = (),
) -> Dataset:
    """Fit a corpus unigram LM (one combiner pass + vocab-bounded driver
    reduce) and score every doc's mean negative log-likelihood under it.
    Returns (doc_id, n_tokens, cross_entropy, ppl); empty docs score 0/1."""
    import ray

    parts = [
        b
        for b in ds.map_batches(UnigramCountStage(text_col), batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
        if b.num_rows
    ]
    if parts:
        allh = np.concatenate([p.column("thash").to_numpy(zero_copy_only=False).view(np.uint64) for p in parts])
        allc = np.concatenate([p.column("cnt").to_numpy(zero_copy_only=False) for p in parts])
        hashes, inv = np.unique(allh, return_inverse=True)
        counts = np.bincount(inv, weights=allc, minlength=hashes.size)
        logp = np.log(counts / counts.sum())
    else:
        hashes, logp = np.zeros(0, np.uint64), np.zeros(0, np.float64)
    ref = ray.put((hashes, logp))
    return ds.map_batches(UnigramScoreStage(ref, text_col, id_col, keep_cols), batch_format="pyarrow")


# ------------------------------------------------ HyperLogLog distinct sketch
def _bitlen_u64(w: np.ndarray) -> np.ndarray:
    """Exact vectorized bit length of u64 values (no float log2 — exact at
    all 64 bits)."""
    bl = np.zeros(w.shape, dtype=np.int64)
    v = w.copy()
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= (np.uint64(1) << np.uint64(s))
        bl[m] += s
        v[m] >>= np.uint64(s)
    bl += (v == 1)
    return bl


_HLL_P = 10  # 2^10 = 1024 registers, ~3.25% relative error


class HllTrigramStage:
    """(text) → per-batch HyperLogLog register partials (idx, rho) over the
    corpus's token-trigram multiset — the combiner side of an approximate
    distinct count.  Registers are max-combined, so partials merge with a
    single ``np.maximum.at``; the whole sketch is 2^p rows regardless of
    corpus size.  md5 trigram hashes keep the sketch SQL-replayable."""

    def __init__(self, p: int = _HLL_P, text_col: str = "text"):
        self.p = p
        self.text_col = text_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        th, rows, _dls = self.tok.tokenize_md5(batch.column(self.text_col).combine_chunks())
        trig, _trow = _row_trigrams(th, rows)
        m = 1 << self.p
        regs = np.zeros(m, dtype=np.int64)
        if trig.size:
            idx = (trig >> np.uint64(64 - self.p)).astype(np.int64)
            w = trig & ((np.uint64(1) << np.uint64(64 - self.p)) - np.uint64(1))
            rho = (64 - self.p + 1) - _bitlen_u64(w)  # w=0 → bitlen 0 → max rho
            np.maximum.at(regs, idx, rho)
        nz = np.flatnonzero(regs)
        return pa.table({"idx": pa.array(nz), "rho": pa.array(regs[nz])})


def approx_distinct_trigrams(ds: Dataset, p: int = _HLL_P, text_col: str = "text"):
    """HyperLogLog estimate of the number of DISTINCT token trigrams in the
    corpus (Flajolet et al. 2007, with the standard small-range linear
    counting correction).  One streaming combiner pass; the driver reduce
    merges ≤ 2^p-row partials — nothing corpus-sized ever moves.

    Returns a one-row pandas DataFrame (m, v_zero, estimate)."""
    import pandas as pd

    m = 1 << p
    regs = np.zeros(m, dtype=np.int64)
    for b in ds.map_batches(HllTrigramStage(p, text_col), batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            np.maximum.at(regs, b.column("idx").to_numpy(zero_copy_only=False), b.column("rho").to_numpy(zero_copy_only=False))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    s = float(np.sum(np.power(2.0, -regs.astype(np.float64))))
    raw = alpha * m * m / s
    v_zero = int(np.count_nonzero(regs == 0))
    est = m * np.log(m / v_zero) if (raw <= 2.5 * m and v_zero > 0) else raw
    return pd.DataFrame({"m": [np.int64(m)], "v_zero": [np.int64(v_zero)], "estimate": [float(est)]})


# ------------------------------------------------- count-min frequency sketch
_CMS_RS = np.array(
    [2685821657736338717, 1181783497276652981, 2862933555777941757, 3202034522624059733],
    dtype=np.uint64,
)  # odd mix constants < 2^62, one per sketch row (keeps th·R inside
#    HUGEINT so the SQL oracle can replay the cells without overflow)


class CmsPartialStage:
    """(text) → per-batch count-min-sketch partial as nonzero cells
    (r, col, cnt).  CMS partials are ADDITIVE, so the combiner is the
    sketch itself — each batch ships ≤ d·w cells no matter how many
    tokens it saw.  md5 token hashes keep the sketch SQL-replayable."""

    def __init__(self, d: int = 4, w: int = 1024, text_col: str = "text"):
        if d > _CMS_RS.size:
            raise ValueError(f"d <= {_CMS_RS.size}")
        self.d = d
        self.w = np.uint64(w)
        self.text_col = text_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        th, _rows, _dls = self.tok.tokenize_md5(batch.column(self.text_col).combine_chunks())
        w = int(self.w)
        cells_r, cells_c, cells_n = [], [], []
        if th.size:
            for i in range(self.d):
                with np.errstate(over="ignore"):
                    col = ((th * _CMS_RS[i]) % self.w).astype(np.int64)
                cnt = np.bincount(col, minlength=w)
                nz = np.flatnonzero(cnt)
                cells_r.append(np.full(nz.size, i, dtype=np.int64))
                cells_c.append(nz)
                cells_n.append(cnt[nz].astype(np.int64))
        r = np.concatenate(cells_r) if cells_r else np.zeros(0, np.int64)
        c = np.concatenate(cells_c) if cells_c else np.zeros(0, np.int64)
        n = np.concatenate(cells_n) if cells_n else np.zeros(0, np.int64)
        return pa.table({"r": pa.array(r), "col": pa.array(c), "cnt": pa.array(n)})


def cms_term_counts(
    ds: Dataset,
    d: int = 4,
    w: int = 1024,
    text_col: str = "text",
):
    """Count-min-sketch term-frequency estimates (Cormode & Muthukrishnan
    2005): fit the d×w sketch in one streaming combiner pass (driver sums
    ≤ d·w-cell partials), then probe every distinct corpus term —
    est = min_i sketch[i, h_i(term)], always ≥ the true count.

    Returns pandas (term, est_count, exact_count, overestimate) sorted by
    term.  The exact side rides the same vocab-bounded unigram reduce the
    PMI/perplexity operators use, so the output doubles as a verification
    of the sketch's one-sided error."""
    import pandas as pd

    import ray

    from ..functions.hashing import md5_u64

    cms = np.zeros((d, w), dtype=np.int64)
    uni: dict = {}
    # one pass for the sketch, one vocab-bounded pass for the probe set
    for b in ds.map_batches(CmsPartialStage(d, w, text_col), batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            np.add.at(
                cms,
                (b.column("r").to_numpy(zero_copy_only=False), b.column("col").to_numpy(zero_copy_only=False)),
                b.column("cnt").to_numpy(zero_copy_only=False),
            )
    parts = [
        b
        for b in ds.map_batches(UnigramPartialStage(text_col), batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
        if b.num_rows
    ]
    if not parts:
        return pd.DataFrame(columns=["term", "est_count", "exact_count", "overestimate"])
    allp = pa.concat_tables(parts)
    dfp = pd.DataFrame(
        {"term": allp.column("term").to_pandas(), "cnt": allp.column("cnt").to_numpy(zero_copy_only=False)}
    ).dropna()
    exact = dfp.groupby("term", sort=True)["cnt"].sum()
    terms = list(exact.index)
    th = md5_u64(terms)
    est = np.full(len(terms), np.iinfo(np.int64).max, dtype=np.int64)
    for i in range(d):
        with np.errstate(over="ignore"):
            col = ((th * _CMS_RS[i]) % np.uint64(w)).astype(np.int64)
        est = np.minimum(est, cms[i, col])
    out = pd.DataFrame(
        {
            "term": terms,
            "est_count": est,
            "exact_count": exact.to_numpy().astype(np.int64),
        }
    )
    out["overestimate"] = out["est_count"] - out["exact_count"]
    return out


# ---------------------------------------------- exact substring dedup (cut)
class DupSpanPositionStage:
    """(doc_id, text) → one row per ``window``-token span OCCURRENCE
    (bucket, whash, doc_id, pos) — the position-preserving map side of
    exact substring dedup (the cut variant needs positions, so no
    per-batch combine; the span stream is exchanged once, same as the
    counting variant)."""

    def __init__(self, window: int = 5, n_buckets: int = 1024, text_col: str = "text", id_col: str = "doc_id"):
        if window < 2:
            raise ValueError("require window >= 2")
        self.window = window
        self.n_buckets = np.uint64(n_buckets)
        self.text_col = text_col
        self.id_col = id_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        th, rows, dls = self.tok.tokenize_md5(batch.column(self.text_col).combine_chunks())
        wh, wrow = _row_windows(th, rows, self.window)
        if wh.size == 0:
            return pa.table(
                {
                    "bucket": pa.array([], type=pa.int32()),
                    "whash": pa.array([], type=pa.int64()),
                    self.id_col: pa.array([], type=pa.int64()),
                    "pos": pa.array([], type=pa.int64()),
                }
            )
        # position of each window inside its own row = global index minus
        # the row's first-window global index
        offs = np.zeros(dls.size + 1, dtype=np.int64)
        np.cumsum(dls, out=offs[1:])
        # windows are emitted in stream order; recompute per-row window
        # starts: global window j at stream index i has pos = i - offs[row]
        n = th.size - self.window + 1
        idx = np.arange(n, dtype=np.int64)[rows[: n] == rows[self.window - 1 :]] if n > 0 else np.zeros(0, np.int64)
        pos = idx - offs[wrow]
        return pa.table(
            {
                "bucket": pa.array((wh % self.n_buckets).astype(np.int32)),
                "whash": pa.array(wh.view(np.int64)),
                self.id_col: pa.array(ids[wrow]),
                "pos": pa.array(pos),
            }
        )


def cut_duplicate_spans(
    ds: Dataset,
    window: int = 5,
    n_buckets: int = 1024,
    text_col: str = "text",
    id_col: str = "doc_id",
    shuffle_width: int | None = None,
) -> Dataset:
    """Exact substring dedup, cut variant (Lee et al. 2022): every token
    covered by a ``window``-token span that appears verbatim in ≥2 docs is
    REMOVED from every doc except the span's canonical owner (the min
    doc_id that contains it).  Returns (doc_id, n_tokens, n_cut,
    cleaned_text) for every doc; ``cleaned_text`` is the kept tokens
    space-joined (the operator's contract is over the token stream).

    Scale shape: exchange 1 ships the span-occurrence stream once on
    whash coarse buckets (each bucket sees every occurrence of its spans
    globally, so dup/owner election is exact); only the CUT occurrences
    (doc, pos) leave — at 100 TB that is the duplicated fraction, not the
    corpus.  Exchange 2 co-partitions those cut positions with the docs
    table itself on doc-hash buckets (tag+union — the text is never
    broadcast), and the per-bucket kernel is one tokenize + one
    diff-array coverage cumsum + one vectorized list rebuild."""

    def bucket_cuts(g: pa.Table) -> pa.Table:
        # schema matches tag_docs so the two streams union cleanly
        empty = pa.table(
            {
                "dbucket": pa.array([], type=pa.int32()),
                id_col: pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
                "text": pa.array([], type=pa.string()),
            }
        )
        if g.num_rows == 0:
            return empty
        wh = g.column("whash").to_numpy(zero_copy_only=False).view(np.uint64)
        doc = g.column(id_col).to_numpy(zero_copy_only=False)
        pos = g.column("pos").to_numpy(zero_copy_only=False)
        order = np.lexsort((doc, wh))
        wh, doc, pos = wh[order], doc[order], pos[order]
        hnew = np.empty(wh.size, dtype=bool)
        hnew[0] = True
        hnew[1:] = wh[1:] != wh[:-1]
        seg = np.cumsum(hnew) - 1
        n_seg = int(seg[-1]) + 1
        # distinct docs per hash: doc changes within a segment
        dnew = hnew.copy()
        dnew[1:] |= doc[1:] != doc[:-1]
        ndocs = np.bincount(seg[dnew], minlength=n_seg)
        # canonical owner = min doc id; rows are doc-sorted within segment
        keeper = doc[np.flatnonzero(hnew)]
        cut = (ndocs[seg] >= 2) & (doc != keeper[seg])
        if not cut.any():
            return empty
        cdoc, cpos = doc[cut], pos[cut]
        dbucket = ((cdoc.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(n_buckets)).astype(np.int32)
        return pa.table(
            {
                "dbucket": pa.array(dbucket),
                id_col: pa.array(cdoc),
                "pos": pa.array(cpos),
                "text": pa.nulls(cdoc.size, pa.string()),
            }
        )

    def tag_docs(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        dbucket = ((ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(n_buckets)).astype(np.int32)
        import pyarrow.compute as _pc

        return pa.table(
            {
                "dbucket": pa.array(dbucket),
                id_col: pa.array(ids),
                "pos": pa.array(np.full(ids.size, -1, dtype=np.int64)),
                "text": _pc.fill_null(batch.column(text_col).cast(pa.string()), ""),
            }
        )

    def rebuild(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                id_col: pa.array([], type=pa.int64()),
                "n_tokens": pa.array([], type=pa.int64()),
                "n_cut": pa.array([], type=pa.int64()),
                "cleaned_text": pa.array([], type=pa.string()),
            }
        )
        if g.num_rows == 0:
            return empty
        pos = g.column("pos").to_numpy(zero_copy_only=False)
        is_text = pos < 0
        if not is_text.any():
            return empty  # cuts without text rows cannot happen on real input
        tg = g.filter(pa.array(is_text))
        ids = tg.column(id_col).to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        texts = tg.column("text").take(pa.array(order)).combine_chunks()
        tok = Tokenizer()
        enc = tok.tokenize_codes(texts)
        if enc is None:
            raise NotImplementedError("cut_duplicate_spans requires an invertible (char-class) token pattern")
        codes, rows, vocab, dls = enc
        offs = np.zeros(dls.size + 1, dtype=np.int64)
        np.cumsum(dls, out=offs[1:])
        total = int(offs[-1])
        diff = np.zeros(total + 1, dtype=np.int64)
        cg = g.filter(pa.array(~is_text))
        n_cut_rows = cg.num_rows
        if n_cut_rows:
            cdoc = cg.column(id_col).to_numpy(zero_copy_only=False)
            cpos = cg.column("pos").to_numpy(zero_copy_only=False)
            r = np.searchsorted(ids, cdoc)
            # cut rows always reference docs present in this bucket
            start = offs[r] + cpos
            end = offs[r] + np.minimum(cpos + window, dls[r])
            np.add.at(diff, start, 1)
            np.add.at(diff, end, -1)
        covered = np.cumsum(diff[:-1]) > 0 if total else np.zeros(0, dtype=bool)
        n_cut = np.bincount(rows[covered], minlength=dls.size).astype(np.int64) if total else np.zeros(dls.size, np.int64)
        keep = ~covered
        kept_rows = rows[keep]
        kept_counts = np.bincount(kept_rows, minlength=dls.size).astype(np.int64)
        koffs = np.zeros(dls.size + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=koffs[1:])
        kept_tokens = vocab.take(pa.array(codes[keep])) if total else pa.array([], type=pa.string())
        lst = pa.LargeListArray.from_arrays(pa.array(koffs, type=pa.int64()), kept_tokens.cast(pa.string()))
        import pyarrow.compute as _pc

        cleaned = _pc.binary_join(lst, " ")
        return pa.table(
            {
                id_col: pa.array(ids),
                "n_tokens": pa.array(dls.astype(np.int64)),
                "n_cut": pa.array(n_cut),
                "cleaned_text": cleaned,
            }
        )

    spans = ds.map_batches(DupSpanPositionStage(window, n_buckets, text_col, id_col), batch_format="pyarrow")
    if shuffle_width:
        spans = spans.repartition(shuffle_width)
    cuts = spans.groupby("bucket").map_groups(bucket_cuts, batch_format="pyarrow")
    tagged = ds.map_batches(tag_docs, batch_format="pyarrow").union(cuts)
    if shuffle_width:
        tagged = tagged.repartition(shuffle_width)
    return tagged.groupby("dbucket").map_groups(rebuild, batch_format="pyarrow")


# ----------------------------------------------------------------- DSIR
class DsirFeatureStage:
    """(lang, text, [doc_id]) → hashed n-gram feature occurrences, the
    shared front half of DSIR (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): word unigrams AND
    in-row bigrams hashed into ``n_buckets`` feature buckets.

    Hashes are SQL-replayable by construction: unigram bucket =
    md5_number_lower(t) % B; bigram bucket = (md5(a)·R + md5(b)) mod 2^64
    % B with the FNV prime R — the same HUGEINT arithmetic the CMS oracle
    replays.  md5 is computed once per batch-unique TERM (vocab) and
    gathered by dictionary code; no per-occurrence Python."""

    def __init__(self, n_buckets: int = 1024, text_col: str = "text"):
        self.n_buckets = int(n_buckets)
        self.text_col = text_col
        self.tok = Tokenizer()

    def occurrences(self, batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """Returns (bucket, row) per feature occurrence (unigrams then
        bigrams), both int64."""
        from ..functions.hashing import md5_u64

        enc = self.tok.tokenize_codes(batch.column(self.text_col).combine_chunks())
        if enc is None:
            raise NotImplementedError("DSIR features require an invertible token pattern")
        codes, rows, vocab, _dls = enc
        B = np.uint64(self.n_buckets)
        if codes.size == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        vh = md5_u64(vocab.to_pylist())
        b_uni = (vh % B).astype(np.int64)[codes]
        same = rows[:-1] == rows[1:]
        with np.errstate(over="ignore"):
            pair = vh[codes[:-1][same]] * _TRIGRAM_R + vh[codes[1:][same]]
        b_big = (pair % B).astype(np.int64)
        return (
            np.concatenate([b_uni, b_big]),
            np.concatenate([rows, rows[:-1][same]]).astype(np.int64),
        )


def dsir_weights(
    ds: Dataset,
    target_lang: str = "en",
    k: int = 20,
    n_buckets: int = 1024,
    alpha: float = 1.0,
    text_col: str = "text",
    id_col: str = "doc_id",
    lang_col: str = "lang",
):
    """DSIR importance weights for data selection: per-doc
    w = Σ_features log(p_target(b) / p_source(b)) over hashed unigram +
    bigram buckets, target = the ``target_lang`` slice, source = the whole
    corpus; returns the top-``k`` docs by (round(w, 6) DESC, doc_id ASC)
    as (rank, doc_id, weight_r).

    Scale shape: pass 1 streams per-batch FIXED-SIZE (``n_buckets``-row)
    bucket-count partials to the driver (the sketch-partial pattern — a
    few KB per block regardless of corpus size); the smoothed log-ratio
    table (8 KB) is ``ray.put`` once; pass 2 streams per-doc weights and
    ships only each block's local top-k candidates.  Nothing corpus-sized
    ever leaves the workers."""
    import pandas as pd
    import ray

    B = int(n_buckets)

    class Partial(DsirFeatureStage):
        def __init__(self, n_buckets: int, text_col: str, lang_col: str, target_lang: str):
            super().__init__(n_buckets, text_col)
            self.lang_col = lang_col
            self.target_lang = target_lang

        def __call__(self, batch: pa.Table) -> pa.Table:
            b, r = self.occurrences(batch)
            is_tgt = pc.equal(batch.column(self.lang_col), self.target_lang).to_numpy(
                zero_copy_only=False
            )
            ns = np.bincount(b, minlength=B).astype(np.int64)
            nt = np.bincount(b[is_tgt[r]], minlength=B).astype(np.int64)
            return pa.table(
                {"bucket": pa.array(np.arange(B, dtype=np.int64)), "nt": pa.array(nt), "ns": pa.array(ns)}
            )

    nt = np.zeros(B, dtype=np.int64)
    ns = np.zeros(B, dtype=np.int64)
    for part in ds.map_batches(Partial(B, text_col, lang_col, target_lang), batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        if part.num_rows:
            idx = part.column("bucket").to_numpy(zero_copy_only=False)
            np.add.at(nt, idx, part.column("nt").to_numpy(zero_copy_only=False))
            np.add.at(ns, idx, part.column("ns").to_numpy(zero_copy_only=False))
    T, S = float(nt.sum()), float(ns.sum())
    logr = np.log((nt + alpha) / (T + alpha * B)) - np.log((ns + alpha) / (S + alpha * B))
    logr_ref = ray.put(logr)

    class Weight(DsirFeatureStage):
        def __init__(self, n_buckets: int, text_col: str, id_col: str, k: int):
            super().__init__(n_buckets, text_col)
            self.id_col = id_col
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            b, r = self.occurrences(batch)
            w = np.bincount(r, weights=cached_ref(logr_ref)[b], minlength=batch.num_rows)
            wr = np.round(w, 6)
            ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
            order = np.lexsort((ids, -wr))[: self.k]
            return pa.table(
                {"doc_id": pa.array(ids[order].astype(np.int64)), "weight_r": pa.array(wr[order])}
            )

    cand = ds.map_batches(Weight(B, text_col, id_col, k), batch_format="pyarrow").to_pandas()
    order = np.lexsort((cand["doc_id"].to_numpy(), -cand["weight_r"].to_numpy()))[:k]
    out = cand.iloc[order].reset_index(drop=True)
    out.insert(0, "rank", np.arange(1, len(out) + 1, dtype=np.int64))
    return pd.DataFrame(out, columns=["rank", "doc_id", "weight_r"])


# winnowing parameters: k = 3 token grams (the shared _row_trigrams fold),
# w = 4 gram window; fingerprint ordering uses the low 44 hash bits with a
# rightmost-position tie-break packed into one u64 key
WINNOW_WINDOW: int = 4
_WINNOW_H_BITS = np.uint64((1 << 44) - 1)
_WINNOW_POS = np.uint64(1 << 20)


class WinnowStage:
    """(doc_id, text) → (doc_id, n_grams, n_fps, fp_digest) — MOSS
    winnowing (Schleimer et al. 2003, the local document-fingerprinting
    guarantee: any shared run of w+k-1 tokens shares a fingerprint): over
    each doc's token-trigram rolling hashes, every window of w consecutive
    grams selects its minimum (RIGHTMOST position on hash ties); the
    distinct selected grams are the doc's fingerprints.

    Fully per-doc, so the stage is one streaming ``map_batches`` pass and
    the output is one bounded row per doc; ``fp_digest`` is the wraparound
    (mod 2^64) sum of the selected gram hashes viewed as int64 — it pins
    the exact selected SET under the SQL oracle without shipping the
    fingerprints themselves.  Selection is vectorized via a packed key
    (low-44 hash bits · 2^20 + position complement): a window min over
    keys IS min-hash-then-rightmost, looped over w−1 SHIFTS, never over
    docs or grams.  Local gram positions must fit 20 bits (10^6-token
    docs fail loudly, the advice-pattern guard)."""

    def __init__(self, w: int = WINNOW_WINDOW, text_col: str = "text", id_col: str = "doc_id"):
        self.w = int(w)
        self.text_col = text_col
        self.id_col = id_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        th, rows, _dls = self.tok.tokenize_md5(batch.column(self.text_col).combine_chunks())
        trig, trow = _row_trigrams(th, rows)
        n_grams = np.bincount(trow, minlength=n).astype(np.int64) if trig.size else np.zeros(n, np.int64)
        n_fps = np.zeros(n, dtype=np.int64)
        digest = np.zeros(n, dtype=np.uint64)
        if trig.size:
            firsts = np.r_[0, np.cumsum(n_grams)[:-1]]
            local = np.arange(trig.size, dtype=np.int64) - firsts[trow]
            if int(local.max()) >= int(_WINNOW_POS):
                raise ValueError("winnowing: doc exceeds 2^20 grams — widen the key packing")
            key = (trig & _WINNOW_H_BITS) * _WINNOW_POS + (
                _WINNOW_POS - np.uint64(1) - local.astype(np.uint64)
            )
            w = self.w
            wm = key.copy()
            for s in range(1, w):
                np.minimum(wm[:-s], key[s:], out=wm[:-s])
            # valid long-doc windows: start j with j and j+w-1 in one doc
            sel_flat = []
            if trig.size >= w:
                j = np.arange(trig.size - w + 1)
                ok = trow[j] == trow[j + w - 1]
                jv = j[ok]
                pos_sel = (_WINNOW_POS - np.uint64(1) - (wm[jv] % _WINNOW_POS)).astype(np.int64)
                sel_flat.append(firsts[trow[jv]] + pos_sel)
            # short docs (0 < m < w): one window over the whole doc.
            # reduceat segments run start-to-next-start, so reduce over
            # EVERY doc's contiguous segment first, then take the short ones
            docs_with = np.flatnonzero(n_grams > 0)
            short_mask = n_grams[docs_with] < w
            if short_mask.any():
                red = np.minimum.reduceat(key, firsts[docs_with])[short_mask]
                pos_sel = (_WINNOW_POS - np.uint64(1) - (red % _WINNOW_POS)).astype(np.int64)
                sel_flat.append(firsts[docs_with[short_mask]] + pos_sel)
            if sel_flat:
                sel = np.unique(np.concatenate(sel_flat))
                sdoc = trow[sel]
                n_fps = np.bincount(sdoc, minlength=n).astype(np.int64)
                with np.errstate(over="ignore"):
                    order = np.argsort(sdoc, kind="stable")
                    sd, sh = sdoc[order], trig[sel][order]
                    starts = np.flatnonzero(np.r_[True, sd[1:] != sd[:-1]])
                    sums = np.add.reduceat(sh, starts)  # wraps mod 2^64
                    digest[sd[starts]] = sums
        return pa.table(
            {
                self.id_col: pa.array(ids),
                "n_grams": pa.array(n_grams),
                "n_fps": pa.array(n_fps),
                "fp_digest": pa.array(digest.view(np.int64)),
            }
        )


def winnowing_fingerprints(ds: Dataset, w: int = WINNOW_WINDOW) -> Dataset:
    """One streaming winnowing pass over (doc_id, text) rows — see
    :class:`WinnowStage`."""
    return ds.map_batches(WinnowStage(w=w), batch_format="pyarrow")


# full Gopher-style quality-rule set (Rae et al. 2021, Table A1, adapted
# to the word-token stream): limits chosen to discriminate on web-ish text
GOPHER_MIN_TOKENS, GOPHER_MAX_TOKENS = 20, 90
GOPHER_MIN_MWL, GOPHER_MAX_MWL = 3.0, 10.0
GOPHER_REQUIRED_WORDS = ("the", "a", "and", "of", "to")
GOPHER_MIN_REQ_HITS = 2
GOPHER_MAX_DUP_FRAC = 0.7
GOPHER_MAX_TOP_BIGRAM = 0.06
GOPHER_MAX_RUN = 2


class GopherStage:
    """(doc_id, text) → the FULL Gopher quality-rule verdict in one fused
    streaming pass (word count, mean word length, required-word hits,
    duplicate-token fraction, top-bigram fraction, longest token run —
    the Rae et al. 2021 Table-A1 family, word-token flavor):

    kept ⇔ 20 ≤ n_tokens ≤ 90 ∧ 3 ≤ mean_wlen ≤ 10 ∧ req_hits ≥ 2 ∧
           dup_frac ≤ 0.7 ∧ top_bigram_frac ≤ 0.06 ∧ max_run ≤ 2.

    Every signal is vectorized over dictionary codes (lengths and
    required-word membership touch only the per-batch unique vocab);
    rows are independent, so the stage partitions trivially and emits
    one row per doc."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self.tok = Tokenizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        enc = self.tok.tokenize_codes(batch.column(self.text_col).combine_chunks())
        assert enc is not None, "GopherStage needs the invertible tokenizer"
        codes, rows, vocab, dls = enc
        n_tok = dls.astype(np.int64)
        mwl = np.zeros(n, dtype=np.float64)
        req = np.zeros(n, dtype=np.int64)
        dup_frac = np.zeros(n, dtype=np.float64)
        top_bg = np.zeros(n, dtype=np.float64)
        max_run = np.zeros(n, dtype=np.int64)
        if codes.size:
            vlen = pc.utf8_length(vocab).to_numpy(zero_copy_only=False).astype(np.float64)
            nz = n_tok > 0
            mwl[nz] = np.bincount(rows, weights=vlen[codes], minlength=n)[nz] / n_tok[nz]
            vreq = pc.is_in(vocab, value_set=pa.array(list(GOPHER_REQUIRED_WORDS))).to_numpy(
                zero_copy_only=False
            ).astype(np.float64)
            req = np.bincount(rows, weights=vreq[codes], minlength=n).astype(np.int64)
            V = np.int64(len(vocab))
            uniq = np.unique(rows * V + codes)
            n_distinct = np.bincount((uniq // V).astype(np.int64), minlength=n)
            dup_frac[nz] = (n_tok[nz] - n_distinct[nz]) / n_tok[nz]
            if codes.size > 1:
                same = rows[:-1] == rows[1:]
                if same.any():
                    b_rows = rows[:-1][same]
                    bkey = (b_rows * V + codes[:-1][same]) * V + codes[1:][same]
                    ub, cnt = np.unique(bkey, return_counts=True)
                    best = np.zeros(n, dtype=np.int64)
                    np.maximum.at(best, (ub // (V * V)).astype(np.int64), cnt)
                    n_bg = np.bincount(b_rows, minlength=n)
                    bz = n_bg > 0
                    top_bg[bz] = best[bz] / n_bg[bz]
            bound = np.empty(codes.size, dtype=bool)
            bound[0] = True
            bound[1:] = (codes[1:] != codes[:-1]) | (rows[1:] != rows[:-1])
            starts = np.flatnonzero(bound)
            run_len = np.diff(np.append(starts, codes.size))
            np.maximum.at(max_run, rows[starts], run_len)
        kept = (
            (n_tok >= GOPHER_MIN_TOKENS)
            & (n_tok <= GOPHER_MAX_TOKENS)
            & (mwl >= GOPHER_MIN_MWL)
            & (mwl <= GOPHER_MAX_MWL)
            & (req >= GOPHER_MIN_REQ_HITS)
            & (dup_frac <= GOPHER_MAX_DUP_FRAC)
            & (top_bg <= GOPHER_MAX_TOP_BIGRAM)
            & (max_run <= GOPHER_MAX_RUN)
        )
        return pa.table(
            {
                self.id_col: batch.column(self.id_col),
                "n_tokens": pa.array(n_tok),
                "mean_wlen_r": pa.array(np.round(mwl, 6)),
                "req_hits": pa.array(req),
                "dup_frac_r": pa.array(np.round(dup_frac, 6)),
                "top_bigram_frac_r": pa.array(np.round(top_bg, 6)),
                "max_run": pa.array(max_run),
                "kept": pa.array(kept),
            }
        )


def gopher_rules(ds: Dataset, text_col: str = "text", id_col: str = "doc_id") -> Dataset:
    return ds.map_batches(GopherStage(text_col, id_col), batch_format="pyarrow")

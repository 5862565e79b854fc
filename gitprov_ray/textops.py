"""Text-analysis operators over document tables (training-data pipeline ops).

All vectorized (pandas str kernels / numpy) inside ``map_batches``; the
hashes are md5-based and process-stable (no Python ``hash()``).

Operators: token counting, punctuation/quality stats, normalization
fingerprint, n-gram-heuristic language ID, 64-bit SimHash.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

_WS = re.compile(r"\s+")
_PUNct = r"[.,;:!?]"

STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "für", "auf"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "pour", "dans", "que"},
    "es": {"el", "la", "los", "de", "que", "es", "un", "una", "por", "con"},
}
_LANGS = sorted(STOPWORDS)


def token_count(texts: pd.Series) -> pd.Series:
    """Whitespace token count; empty/blank text → 0. SQL twin:
    CASE WHEN trim(text)='' THEN 0 ELSE len(string_split_regex(trim(text),'\\s+')) END."""
    stripped = texts.fillna("").str.strip()
    n = stripped.str.split(_WS).str.len()
    return n.where(stripped != "", 0).astype("int64")


def punct_count(texts: pd.Series) -> pd.Series:
    return texts.fillna("").str.count(_PUNct).astype("int64")


def normalize_text(texts: pd.Series) -> pd.Series:
    """lower + collapse whitespace + strip (the fingerprint normal form)."""
    return texts.fillna("").str.lower().str.replace(_WS, " ", regex=True).str.strip()


def md5_series(texts: pd.Series) -> pd.Series:
    return texts.map(lambda s: hashlib.md5(s.encode("utf-8")).hexdigest())


def fingerprint(texts: pd.Series) -> pd.Series:
    """Document fingerprint = md5 of the normalized text."""
    return md5_series(normalize_text(texts))


def lang_id(texts: pd.Series) -> pd.Series:
    """n-gram/stopword-heuristic language ID; 'und' below confidence."""
    out = []
    for t in texts.fillna(""):
        toks = t.lower().split()
        if not toks:
            out.append("und")
            continue
        scores = [(sum(w in STOPWORDS[l] for w in toks) / len(toks), l)
                  for l in _LANGS]
        best, lang = max(scores)
        out.append(lang if best >= 0.08 else "und")
    return pd.Series(out, index=texts.index)


def _stable_token_hash(tok: str) -> int:
    return int.from_bytes(hashlib.md5(tok.encode("utf-8")).digest()[:8], "big")


def simhash64(texts: pd.Series) -> pd.Series:
    """64-bit SimHash over whitespace tokens (stable md5 token hashes).
    Returned as a hex string (Arrow/DuckDB-friendly; uint64 doesn't fit
    int64)."""
    bits = np.arange(64, dtype=np.uint64)
    out = []
    for t in texts.fillna(""):
        toks = t.split()
        if not toks:
            out.append("0" * 16)
            continue
        hs = np.fromiter((_stable_token_hash(tok) for tok in toks),
                         dtype=np.uint64, count=len(toks))
        votes = ((hs[:, None] >> bits) & np.uint64(1)).astype(np.int64)
        sig = (votes.sum(axis=0) * 2 > len(toks)).astype(np.uint64)
        val = np.uint64(0)
        for b in range(64):
            if sig[b]:
                val |= np.uint64(1) << np.uint64(b)
        out.append(format(int(val), "016x"))
    return pd.Series(out, index=texts.index)


def quality_stats(df: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Length/punct/stopword-ratio quality features (integers only so the
    oracle value-hash is FP-safe)."""
    t = df[text_col]
    toks = token_count(t)
    out = pd.DataFrame(
        {
            "n_chars_m": t.fillna("").str.len().astype("int64"),
            "tok_cnt": toks,
            "punct_cnt": punct_count(t),
        }
    )
    return out


# ---------------------------------------------------------------------------
# LM-based quality scoring (the CCNet recipe: score documents by a small
# language model trained on reference text; low cross-entropy ≈ fluent)
# ---------------------------------------------------------------------------


class CharTrigramLM:
    """Tiny add-one-smoothed character-trigram LM.

    `fit` on a reference corpus sample (driver-side — the model is a few
    hundred KB), then the fitted model broadcasts once (ray.put /
    actor-constructor arg) and `perplexity_bits` scores batches
    vectorized. The CCNet pipeline does exactly this shape with a 5-gram
    KenLM; the trigram keeps the engine dependency-free while preserving
    the distributed pattern (train small → broadcast → score wide)."""

    def __init__(self):
        self.counts: dict[bytes, int] = {}
        self.context: dict[bytes, int] = {}
        self.vocab = 256

    @staticmethod
    def _norm(text: str) -> bytes:
        return (" " + " ".join((text or "").lower().split()) + " ") \
            .encode("utf-8", "replace")

    def fit(self, texts) -> "CharTrigramLM":
        for t in texts:
            b = self._norm(t)
            for i in range(len(b) - 2):
                g = b[i:i + 3]
                self.counts[g] = self.counts.get(g, 0) + 1
                self.context[g[:2]] = self.context.get(g[:2], 0) + 1
        return self

    def perplexity_bits(self, text: str) -> float:
        """Cross-entropy in bits per character (add-one smoothed)."""
        b = self._norm(text)
        if len(b) < 3:
            return float(np.log2(self.vocab))
        total = 0.0
        n = len(b) - 2
        for i in range(n):
            g = b[i:i + 3]
            num = self.counts.get(g, 0) + 1
            den = self.context.get(g[:2], 0) + self.vocab
            total -= np.log2(num / den)
        return float(total / n)


class LMQualityScorer:
    """Actor-pool stage: the fitted LM deserializes once per actor."""

    def __init__(self, lm_ref, id_col: str = "doc_id",
                 text_col: str = "text"):
        import ray

        self.lm = ray.get(lm_ref)
        self.id_col, self.text_col = id_col, text_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        bits = [self.lm.perplexity_bits(t) for t in df[self.text_col]]
        return pd.DataFrame({
            self.id_col: df[self.id_col].to_numpy(),
            # integer millibits: FP-safe for the driver's value hash
            "lm_millibits": (np.asarray(bits) * 1000).astype(np.int64),
        })


def lm_quality_scores(docs_ds, ref_ds, id_col: str = "doc_id",
                      text_col: str = "text", sample_rows: int = 512,
                      concurrency=(1, 8)):
    """CCNet-style LM filtering, Ray-Data-shaped: fit the small reference
    LM from a BOUNDED driver-side sample (deterministic limit — the model
    is the only thing that ever leaves the reference set), broadcast it
    once, and score the whole corpus in a streaming actor-pool pass.
    Returns (id, lm_millibits); callers threshold/bucket downstream."""
    import ray

    ref = ref_ds.limit(sample_rows).to_pandas()
    lm = CharTrigramLM().fit(ref[text_col])
    lm_ref = ray.put(lm)
    return docs_ds.map_batches(
        LMQualityScorer,
        fn_constructor_kwargs={"lm_ref": lm_ref, "id_col": id_col,
                               "text_col": text_col},
        batch_format="pandas", concurrency=concurrency)


# ---------------------------------------------------------------------------
# Gopher-style document quality rules, repetition stats and PII scrubbing
# (Rae et al. 2021 "Scaling Language Models" §A1.1 heuristics; the web-
# curation ops a 100-TB text pipeline gates on). Ratios are INTEGER
# millis so the DuckDB oracle twins hash-match exactly.
# ---------------------------------------------------------------------------

def gopher_quality(df: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Per-doc quality signals + the pass flag: word count in [50, 100k],
    mean word length in [3, 10], '#'/'...' symbol-to-word ratio ≤ 0.1,
    bullet-line ratio ≤ 0.9 (all vectorized; millis = floor(x*1000))."""
    texts = df[text_col].fillna("")
    toks = texts.str.split()
    n_words = toks.str.len().fillna(0).astype("int64")
    char_sum = toks.map(lambda ws: sum(len(w) for w in ws) if ws else 0) \
        .astype("int64")
    denom = n_words.clip(lower=1)
    mean_word_len_milli = (char_sum * 1000) // denom
    n_sym = (texts.str.count("#").astype("int64")
             + texts.str.count(r"\.\.\.").astype("int64"))
    symbol_word_milli = (n_sym * 1000) // denom
    lines = texts.str.split("\n")
    n_lines = lines.str.len().astype("int64")
    n_bullet = lines.map(lambda ls: sum(
        1 for l in ls if l.lstrip().startswith(("-", "•")))).astype("int64")
    bullet_milli = (n_bullet * 1000) // n_lines.clip(lower=1)
    ok = ((n_words >= 50) & (n_words <= 100_000)
          & (mean_word_len_milli >= 3000) & (mean_word_len_milli <= 10_000)
          & (symbol_word_milli <= 100) & (bullet_milli <= 900))
    return pd.DataFrame({
        "n_words": n_words, "mean_word_len_milli": mean_word_len_milli,
        "symbol_word_milli": symbol_word_milli,
        "bullet_milli": bullet_milli,
        "gopher_pass": ok.astype("int64")})


def repetition_stats(texts: pd.Series) -> pd.DataFrame:
    """Duplicate-line fraction (milli): lines split on '\\n' as-is
    (empties count); dup fraction = (n_lines - n_distinct) / n_lines."""
    lines = texts.fillna("").str.split("\n")
    n_lines = lines.str.len().astype("int64")
    n_distinct = lines.map(lambda ls: len(set(ls))).astype("int64")
    frac = ((n_lines - n_distinct) * 1000) // n_lines.clip(lower=1)
    return pd.DataFrame({"n_lines": n_lines, "n_distinct_lines": n_distinct,
                         "dup_line_milli": frac})


# RE2-compatible (no backrefs/lookaround) so the DuckDB twin evaluates
# the IDENTICAL patterns with regexp_replace/regexp_extract_all
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


def pii_scrub(texts: pd.Series) -> pd.DataFrame:
    """Redact emails then IPv4 literals (left-to-right non-overlapping,
    the same semantics as RE2's global replace) → scrubbed text +
    per-kind counts."""
    t = texts.fillna("")
    n_email = t.str.count(PII_EMAIL_RE).astype("int64")
    scrubbed = t.str.replace(PII_EMAIL_RE, "<EMAIL>", regex=True)
    n_ip = scrubbed.str.count(PII_IPV4_RE).astype("int64")
    scrubbed = scrubbed.str.replace(PII_IPV4_RE, "<IP>", regex=True)
    return pd.DataFrame({"scrubbed": scrubbed, "n_emails": n_email,
                         "n_ips": n_ip})


SENTENCE_BREAK_RE = r"[.!?]+"


def sentence_split_stats(texts: pd.Series) -> pd.DataFrame:
    """Rule-based sentence segmentation (split on terminal-punctuation
    runs, strip whitespace, drop empties) \u2192 per-row sentence count and
    total stripped-sentence chars. Fully vectorized: split lists are
    exploded once and folded back by row index (caller must pass a
    unique-index Series)."""
    t = texts.fillna("")
    ex = t.str.split(SENTENCE_BREAK_RE, regex=True).explode().str.strip()
    ex = ex[ex.notna() & ex.ne("")]
    n = ex.groupby(level=0).size()
    sc = ex.str.len().groupby(level=0).sum()
    return pd.DataFrame({
        "n_sentences": n.reindex(t.index, fill_value=0).astype("int64"),
        "sum_chars": sc.reindex(t.index, fill_value=0).astype("int64")})


VOWEL_GROUP_RE = r"[aeiouy]+"


def syllable_counts(words: pd.Series) -> pd.Series:
    """Heuristic syllables per word = vowel-group runs (floor 1) \u2014 the
    standard readability-formula approximation. Vectorized str.count."""
    return (words.str.lower().str.count(VOWEL_GROUP_RE)
            .clip(lower=1).astype("int64"))


# ---------------------------------------------------------------------------
# Porter stemming (M.F. Porter 1980, "An algorithm for suffix stripping" \u2014
# the ORIGINAL published rule set; within each step the LONGEST matching
# suffix is selected and its condition decides, no fallthrough)
# ---------------------------------------------------------------------------

def _p_cons(w: str, i: int) -> bool:
    c = w[i]
    if c in "aeiou":
        return False
    if c == "y":
        return i == 0 or not _p_cons(w, i - 1)
    return True


def _p_measure(w: str) -> int:
    m, i, n = 0, 0, len(w)
    while i < n and _p_cons(w, i):
        i += 1
    while i < n:
        while i < n and not _p_cons(w, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _p_cons(w, i):
            i += 1
    return m


def _p_has_vowel(w: str) -> bool:
    return any(not _p_cons(w, i) for i in range(len(w)))


def _p_double_cons(w: str) -> bool:
    return len(w) >= 2 and w[-1] == w[-2] and _p_cons(w, len(w) - 1)


def _p_cvc(w: str) -> bool:
    return (len(w) >= 3 and _p_cons(w, len(w) - 3)
            and not _p_cons(w, len(w) - 2) and _p_cons(w, len(w) - 1)
            and w[-1] not in "wxy")


_P_STEP2 = (("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
            ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
            ("alli", "al"), ("entli", "ent"), ("eli", "e"),
            ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
            ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
            ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
            ("iviti", "ive"), ("biliti", "ble"))
_P_STEP3 = (("icate", "ic"), ("ative", ""), ("alize", "al"),
            ("iciti", "ic"), ("ical", "ic"), ("ful", ""), ("ness", ""))
_P_STEP4 = ("al", "ance", "ence", "er", "ic", "able", "ible", "ant",
            "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
            "ous", "ive", "ize")


def _p_longest(w: str, sufs) -> str | None:
    best = None
    for s in sufs:
        if w.endswith(s) and (best is None or len(s) > len(best)):
            best = s
    return best


def porter_stem_word(w: str) -> str:
    if len(w) <= 2:
        return w
    # step 1a
    if w.endswith("sses") or w.endswith("ies"):
        w = w[:-2]
    elif not w.endswith("ss") and w.endswith("s"):
        w = w[:-1]
    # step 1b
    if w.endswith("eed"):
        if _p_measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        stripped = None
        if w.endswith("ed") and _p_has_vowel(w[:-2]):
            stripped = w = w[:-2]
        elif w.endswith("ing") and _p_has_vowel(w[:-3]):
            stripped = w = w[:-3]
        if stripped is not None:
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _p_double_cons(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _p_measure(w) == 1 and _p_cvc(w):
                w += "e"
    # step 1c
    if w.endswith("y") and _p_has_vowel(w[:-1]):
        w = w[:-1] + "i"
    # step 2
    s = _p_longest(w, [a for a, _ in _P_STEP2])
    if s is not None and _p_measure(w[:-len(s)]) > 0:
        w = w[:-len(s)] + dict(_P_STEP2)[s]
    # step 3
    s = _p_longest(w, [a for a, _ in _P_STEP3])
    if s is not None and _p_measure(w[:-len(s)]) > 0:
        w = w[:-len(s)] + dict(_P_STEP3)[s]
    # step 4
    s = _p_longest(w, _P_STEP4)
    if s is not None:
        stem = w[:-len(s)]
        if _p_measure(stem) > 1 and (s != "ion" or stem[-1:] in ("s", "t")):
            w = stem
    # step 5a
    if w.endswith("e"):
        a = w[:-1]
        m = _p_measure(a)
        if m > 1 or (m == 1 and not _p_cvc(a)):
            w = a
    # step 5b
    if _p_measure(w) > 1 and _p_double_cons(w) and w.endswith("l"):
        w = w[:-1]
    return w


def porter_stem(words: pd.Series) -> pd.Series:
    """Vectorized-by-vocabulary Porter stemming: each UNIQUE token stems
    once per batch (natural-language vocabulary is sub-linear in corpus
    size), rows map through the dict."""
    w = words.fillna("")
    table = {t: porter_stem_word(t) for t in pd.unique(w)}
    return w.map(table)


_HIGH_CHAR_RE = re.compile("[\x80-\uffff]")


def fix_mojibake(texts: pd.Series) -> pd.DataFrame:
    """Double-encoded-UTF-8 repair (the ftfy core move): text whose
    UTF-8 bytes were once mis-decoded as latin-1/cp1252 reads like
    'cafÃ©'; re-encoding through the 8-bit codec and decoding as UTF-8
    recovers the original. The repair is SELF-GUARDING — legitimate
    text with isolated accents fails the UTF-8 re-decode (a lone 0xE9
    byte is not valid UTF-8) and passes through untouched, and pure
    ASCII round-trips to itself. latin-1 is tried first, cp1252 second
    (it maps 0x80-0x9F where latin-1 has controls). Per-row C-codec
    work behind a compiled high-char regex fast path."""
    t = texts.fillna("")

    def fix(s: str):
        if not _HIGH_CHAR_RE.search(s):
            return s, False
        for codec in ("latin-1", "cp1252"):
            try:
                rep = s.encode(codec).decode("utf-8")
            except (UnicodeEncodeError, UnicodeDecodeError):
                continue
            if rep != s:
                return rep, True
            return s, False
        return s, False

    pairs = t.map(fix)
    return pd.DataFrame({"fixed_text": pairs.str[0],
                         "was_fixed": pairs.str[1].astype(bool)})


CARD_CAND_RE = r"\b\d{13,19}\b"          # PAN length range (ISO/IEC 7812)
PHONE_NANP_RE = r"\+1-\d{3}-\d{3}-\d{4}"


def luhn_card_stats(texts: pd.Series) -> pd.DataFrame:
    """Credit-card-number detection for PII filtering: 13-19-digit
    word-bounded runs are candidates; each is validated with the REAL
    Luhn mod-10 checksum, fully vectorized — candidates explode to a
    flat Series, left-zero-pad to width 20 (Luhn is padding-invariant:
    a doubled zero is still zero), then one uint8 digit-matrix
    double/sum pass. NANP phone literals are counted alongside.
    Returns (n_cands, n_valid, n_phones) per input row."""
    t = texts.fillna("").reset_index(drop=True)
    cands = t.str.findall(CARD_CAND_RE)
    n_cands = cands.str.len().astype("int64")
    ex = cands.explode().dropna()
    if len(ex):
        pad = ex.str.rjust(20, "0")
        m = (np.frombuffer("".join(pad.tolist()).encode(),
                           dtype=np.uint8)
             .reshape(-1, 20).astype(np.int64) - 48)
        dbl = m * 2
        dbl -= 9 * (dbl > 9)
        # position-from-right i = 20 - col; doubled at even i ⇔ even col
        pick = np.where(np.arange(20) % 2 == 0, dbl, m)
        ok = pd.Series(pick.sum(axis=1) % 10 == 0, index=ex.index)
        n_valid = (ok.groupby(level=0).sum()
                   .reindex(t.index, fill_value=0).astype("int64"))
    else:
        n_valid = pd.Series(0, index=t.index, dtype="int64")
    n_phones = t.str.count(PHONE_NANP_RE).astype("int64")
    return pd.DataFrame({"n_cands": n_cands, "n_valid": n_valid,
                         "n_phones": n_phones})


# GPT-2-style pretokenizer, restricted to the RE2 ∩ Python-re feature set
# (no lookahead, ASCII classes) so the DuckDB twin evaluates the IDENTICAL
# pattern: contractions | space?+letters | space?+digits | space?+other |
# whitespace runs.
BPE_PRETOKEN_RE = (r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+"
                   r"| ?[^\sA-Za-z0-9]+|\s+")


def bpe_token_stats(texts: pd.Series) -> pd.DataFrame:
    """BPE-ish pretoken counts (the LLM-token budget estimator): total
    pretokens, word pretokens, number pretokens — vectorized
    str.findall."""
    t = texts.fillna("")
    toks = t.str.findall(BPE_PRETOKEN_RE)
    n = toks.str.len().astype("int64")
    n_word = toks.map(lambda ts: sum(
        1 for x in ts if x.lstrip(" ")[:1].isalpha())).astype("int64")
    n_num = toks.map(lambda ts: sum(
        1 for x in ts if x.lstrip(" ")[:1].isdigit())).astype("int64")
    return pd.DataFrame({"n_pretokens": n, "n_word_toks": n_word,
                         "n_num_toks": n_num})


C4_TERMINAL = (".", "!", "?", '"')


def c4_line_filter(texts: pd.Series) -> pd.DataFrame:
    """C4-style line-level cleaning (Raffel et al. 2020 §2.2 subset): a
    line survives iff it ends in terminal punctuation (after trailing
    spaces), has >= 3 whitespace words, and contains neither '{' nor
    'lorem ipsum' (case-insensitive). A doc passes with >= 3 surviving
    lines. Semantics shared verbatim with the DuckDB twin."""
    t = texts.fillna("")
    lines = t.str.split("\n")

    def keep(ls):
        return [l for l in ls
                if l.rstrip(" ").endswith(C4_TERMINAL)
                and len(l.split()) >= 3
                and "{" not in l
                and "lorem ipsum" not in l.lower()]

    kept = lines.map(keep)
    n_lines = lines.str.len().astype("int64")
    kept_lines = kept.str.len().astype("int64")
    return pd.DataFrame({
        "n_lines": n_lines, "kept_lines": kept_lines,
        "c4_pass": (kept_lines >= 3).astype("int64"),
        "cleaned_text": kept.str.join("\n")})


GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have",
                    "with")


def gopher_stats(texts: pd.Series) -> pd.DataFrame:
    """Gopher/MassiveText quality + repetition gates (Rae et al. 2021,
    Appendix A1.1 subset) in ALL-INTEGER arithmetic so the DuckDB twin
    is exact — every ratio threshold is cross-multiplied:

      * word count in [50, 100000]
      * mean word length in [3, 10]        (3n <= chars <= 10n)
      * >=80% of words contain an alpha    (5*alpha >= 4n)
      * >=2 distinct canonical stop words  (GOPHER_STOPWORDS)
      * <90% of lines bullet-started       (10*bullet < 9*lines)
      * <30% of lines ellipsis-terminated  (10*ell < 3*lines)
      * symbol-to-word ratio < 0.1         ('#' + '...' occurrences)
      * duplicate-line fraction <= 0.30
      * top word-2-gram char fraction <= 0.20 (pinned contract: chars =
        occurrences * (len(w1)+len(w2)); ties broken count desc then
        gram desc — the paper leaves ties unspecified)

    Stateless and vectorized: word/line stats ride one explode +
    groupby per batch; no Python loop over rows. Returns one row per
    input row (index-aligned) with metric ints, per-gate bools and the
    AND-of-gates `gopher_pass`."""
    t = texts.fillna("").reset_index(drop=True)
    idx = t.index
    words = t.str.findall(r"\S+")
    n_words = words.str.len().astype("int64")
    word_chars = t.str.replace(r"\s+", "", regex=True).str.len() \
        .astype("int64")

    w = words.explode().dropna()
    wdf = pd.DataFrame({"i": w.index.to_numpy(), "w": w.to_numpy()})
    alpha_words = (wdf[wdf["w"].str.contains("[A-Za-z]", regex=True)]
                   .groupby("i").size().reindex(idx, fill_value=0)
                   .astype("int64"))
    stop_kinds = (wdf[wdf["w"].str.lower().isin(GOPHER_STOPWORDS)]
                  .drop_duplicates().groupby("i").size()
                  .reindex(idx, fill_value=0).astype("int64"))

    # word-2-grams: explode order is (row, position), so shift(-1)
    # pairs each word with its successor; mask row boundaries
    nxt = wdf["w"].shift(-1)
    same = wdf["i"].shift(-1) == wdf["i"]
    gdf = pd.DataFrame({"i": wdf["i"][same],
                        "g": (wdf["w"] + " " + nxt)[same]})
    if len(gdf):
        cnt = gdf.groupby(["i", "g"], sort=False).size().rename("cnt") \
            .reset_index()
        top = (cnt.sort_values(["i", "cnt", "g"],
                               ascending=[True, False, False])
               .drop_duplicates("i"))
        top2_chars = pd.Series(
            (top["cnt"] * (top["g"].str.len() - 1)).to_numpy(),
            index=top["i"].to_numpy()).reindex(idx, fill_value=0) \
            .astype("int64")
    else:
        top2_chars = pd.Series(0, index=idx, dtype="int64")

    lines = t.str.split("\n")
    n_lines = lines.str.len().astype("int64")
    le = lines.explode()
    ldf = pd.DataFrame({"i": le.index.to_numpy(), "l": le.to_numpy()})
    bullet_lines = (ldf[ldf["l"].str.startswith(("- ", "* "))]
                    .groupby("i").size().reindex(idx, fill_value=0)
                    .astype("int64"))
    ellipsis_lines = (ldf[ldf["l"].str.endswith("...")]
                      .groupby("i").size().reindex(idx, fill_value=0)
                      .astype("int64"))
    dup_lines = (n_lines
                 - ldf.drop_duplicates().groupby("i").size()
                 .reindex(idx, fill_value=0)).astype("int64")
    symbols = (t.str.count("#")
               + t.str.count(r"\.\.\.")).astype("int64")

    g_count = (n_words >= 50) & (n_words <= 100000)
    g_meanlen = (3 * n_words <= word_chars) & (word_chars <= 10 * n_words)
    g_alpha = 5 * alpha_words >= 4 * n_words
    g_stop = stop_kinds >= 2
    g_bullet = 10 * bullet_lines < 9 * n_lines
    g_ellipsis = 10 * ellipsis_lines < 3 * n_lines
    g_symbol = 10 * symbols < n_words
    g_dupline = 10 * dup_lines <= 3 * n_lines
    g_top2 = 5 * top2_chars <= word_chars
    return pd.DataFrame({
        "n_words": n_words, "word_chars": word_chars,
        "alpha_words": alpha_words, "stop_kinds": stop_kinds,
        "n_lines": n_lines, "bullet_lines": bullet_lines,
        "ellipsis_lines": ellipsis_lines, "symbols": symbols,
        "dup_lines": dup_lines, "top2_chars": top2_chars,
        "g_count": g_count, "g_meanlen": g_meanlen, "g_alpha": g_alpha,
        "g_stop": g_stop, "g_bullet": g_bullet,
        "g_ellipsis": g_ellipsis, "g_symbol": g_symbol,
        "g_dupline": g_dupline, "g_top2": g_top2,
        "gopher_pass": (g_count & g_meanlen & g_alpha & g_stop
                        & g_bullet & g_ellipsis & g_symbol & g_dupline
                        & g_top2)})


def bpe_train(words_ds, n_merges: int = 4, return_vocab: bool = False):
    """Distributed BPE tokenizer training (Sennrich et al. 2016): learn
    `n_merges` merges over a (word, cnt) vocabulary Dataset. Each round:
    one streaming pair-count pass (per-batch partial sums; overlapping
    adjacent pairs, the classic get_stats semantics), a tiny aggregate of
    distinct symbol pairs (bounded by the vocabulary, NOT the corpus —
    the only thing that ever reaches the driver), then a broadcast merge
    applied vectorized (left-to-right non-overlapping str.replace — the
    exact semantics DuckDB's replace() shares, which is what makes the
    unrolled-CTE twin exact).

    The vocabulary is materialized once and after each merge round
    (invariant 10: an op that re-consumes its input per iteration must
    not re-execute the upstream read).

    Returns a pandas DataFrame (step, left, right, pair_count) — the
    learned merge table, n_merges rows. With ``return_vocab=True``,
    returns (merges, vocab_ds) where vocab_ds is the post-merge
    (sym, cnt) vocabulary Dataset — the input to tokenizer APPLICATION
    (q_bpe_tokenize_docs joins corpus words against it).
    """
    from ray.data.aggregate import Sum

    def symbolize(df: pd.DataFrame) -> pd.DataFrame:
        sym = df["word"].map(lambda w: " " + " ".join(w) + " ")
        return pd.DataFrame({"sym": sym, "cnt": df["cnt"].to_numpy()})

    words = words_ds.map_batches(symbolize,
                                 batch_format="pandas").materialize()
    merges = []
    for step in range(1, n_merges + 1):
        def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
            syms = df["sym"].str.split()
            lens = syms.str.len().to_numpy(dtype=np.int64)
            npairs = np.maximum(lens - 1, 0)
            w = np.repeat(df["cnt"].to_numpy(), npairs)
            lefts, rights = [], []
            for s in syms:
                lefts.extend(s[:-1])
                rights.extend(s[1:])
            g = (pd.DataFrame({"a": lefts, "b": rights, "w": w})
                 .groupby(["a", "b"], sort=False)["w"].sum().reset_index())
            return g

        pairs = (words.map_batches(pair_partial, batch_format="pandas")
                 .groupby(["a", "b"]).aggregate(Sum("w", alias_name="w"))
                 .to_pandas())
        if pairs.empty:
            break
        pairs = pairs.sort_values(["w", "a", "b"],
                                  ascending=[False, True, True],
                                  kind="mergesort")
        best = pairs.iloc[0]
        a, b, w = str(best["a"]), str(best["b"]), int(best["w"])
        merges.append({"step": np.int64(step), "left": a, "right": b,
                       "pair_count": np.int64(w)})
        # TWO replace passes: consecutive occurrences (' a b a b ') share
        # the delimiter space, so one left-to-right pass skips every
        # second one; after pass 1 missed occurrences are never adjacent
        # (each is flanked by a merged token), so pass 2 is exact. The
        # DuckDB twin nests replace() twice for the same reason.
        words = words.map_batches(
            lambda df, a=a, b=b: df.assign(
                sym=df["sym"]
                .str.replace(f" {a} {b} ", f" {a}{b} ", regex=False)
                .str.replace(f" {a} {b} ", f" {a}{b} ", regex=False)),
            batch_format="pandas").materialize()
    out = pd.DataFrame(merges, columns=["step", "left", "right",
                                        "pair_count"])
    return (out, words) if return_vocab else out


# RE2-compatible (shared verbatim with the DuckDB twin): script/style
# blocks first, then comments, then any tag; entity decode is the fixed
# 5-entity core (&amp; LAST so '&amp;lt;' decodes to '&lt;' not '<').
HTML_SCRIPT_RE = r"(?s)<(script|style)[^>]*>.*?</(script|style)>"
HTML_COMMENT_RE = r"(?s)<!--.*?-->"
HTML_TAG_RE = r"(?s)<[^>]*>"


def html_to_text(texts: pd.Series) -> pd.DataFrame:
    """Deterministic HTML -> text extraction (the boilerplate-strip stage
    of a crawl curation pipeline): drop script/style subtrees, comments,
    then all tags; decode the core entities; collapse whitespace runs to
    one space and trim. Regex semantics shared with the SQL twin."""
    t = texts.fillna("")
    n_tags = t.str.count(HTML_TAG_RE).astype("int64")
    s = t.str.replace(HTML_SCRIPT_RE, " ", regex=True)
    s = s.str.replace(HTML_COMMENT_RE, " ", regex=True)
    s = s.str.replace(HTML_TAG_RE, " ", regex=True)
    for ent, ch in [("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'),
                    ("&#39;", "'"), ("&amp;", "&")]:
        s = s.str.replace(ent, ch, regex=False)
    s = s.str.replace(r"\s+", " ", regex=True).str.strip()
    return pd.DataFrame({"extracted": s,
                         "n_tags": n_tags,
                         "text_len": s.str.len().astype("int64")})


# ---------------------------------------------------------------------------
# WordPiece tokenization (greedy longest-match-first, Schuster & Nakajima /
# BERT): fixed closed vocab so the SQL twin can replay the identical walk.
# Single letters (and their ## continuations) are all present, so every
# [a-z]+ word tokenizes without [UNK].
# ---------------------------------------------------------------------------

WORDPIECE_WORD_CAP = 16        # words truncate to 16 chars (the contract)

_WP_START = tuple("abcdefghijklmnopqrstuvwxyz") + (
    "the", "and", "ing", "ion", "ent", "ter", "tion", "ere", "ati",
    "un", "pre", "con", "com", "dis", "over", "under", "inter",
    "re", "de", "in", "st", "ch", "sh", "th", "wh", "qu", "pro",
)
_WP_CONT = tuple("abcdefghijklmnopqrstuvwxyz") + (
    "ing", "ed", "ion", "er", "es", "ly", "ment", "tion", "al",
    "ate", "ity", "ous", "ant", "ent", "ness", "able", "ful",
    "est", "ers", "ations", "s", "ted", "ting",
)
# (piece_text, is_cont) — the display form prefixes continuations "##"
WORDPIECE_VOCAB = tuple(sorted({(p, False) for p in _WP_START}
                               | {(p, True) for p in _WP_CONT}))
_WP_BY_LEN = {
    False: sorted({p for p, c in WORDPIECE_VOCAB if not c},
                  key=len, reverse=True),
    True: sorted({p for p, c in WORDPIECE_VOCAB if c},
                 key=len, reverse=True),
}
_WP_SET = {False: {p for p, c in WORDPIECE_VOCAB if not c},
           True: {p for p, c in WORDPIECE_VOCAB if c}}


def wordpiece_tokenize(word: str) -> list:
    """One [a-z]+ word (pre-truncated to WORDPIECE_WORD_CAP) → greedy
    longest-match-first pieces, continuations rendered '##piece'."""
    word = word[:WORDPIECE_WORD_CAP]
    out, pos, n = [], 0, len(word)
    while pos < n:
        cont = pos > 0
        for p in _WP_BY_LEN[cont]:
            if word.startswith(p, pos):
                out.append("##" + p if cont else p)
                pos += len(p)
                break
        else:                      # unreachable: single letters cover all
            out.append("[UNK]")
            break
    return out


def wordpiece_stats(texts: pd.Series) -> pd.DataFrame:
    """Per text: word count, total pieces, continuation pieces —
    vocabulary-memoized (each distinct truncated word tokenizes once
    per batch, the porter_stem pattern)."""
    toks = texts.fillna("").str.lower().str.findall(r"[a-z]+")
    cache: dict = {}
    n_words = np.zeros(len(toks), np.int64)
    n_pieces = np.zeros(len(toks), np.int64)
    n_cont = np.zeros(len(toks), np.int64)
    for i, words in enumerate(toks.to_numpy(dtype=object)):
        n_words[i] = len(words)
        for w in words:
            w = w[:WORDPIECE_WORD_CAP]
            got = cache.get(w)
            if got is None:
                pieces = wordpiece_tokenize(w)
                got = (len(pieces),
                       sum(1 for p in pieces if p.startswith("##")))
                cache[w] = got
            n_pieces[i] += got[0]
            n_cont[i] += got[1]
    return pd.DataFrame({"n_words": n_words, "n_pieces": n_pieces,
                         "n_cont": n_cont})


def phrase_search(ds, phrase: str, text_col: str = "text",
                  id_col: str = "doc_id", num_buckets: int = 64):
    """Positional phrase search — the inverted-index phrase-query
    primitive (Manning/Raghavan/Schütze IR ch. 2 positional postings):
    an occurrence of phrase word i at token position p VOTES for start
    position p-i; a start collecting all k votes is an exact phrase
    match (a word repeated in the phrase contributes one vote per role,
    so "batch batch batch" works). Tokenization = split on single
    spaces, positions 0-based — shared verbatim with the SQL twin
    (generate_subscripts).

    Shape: only PHRASE-TERM occurrences leave the tokenizing map (the
    postings prune), then ONE doc-bucketed exchange reduces votes →
    match starts → per-doc stats in a single group pass. Returns a
    Dataset (id_col, n_matches, first_pos) for matching docs."""
    from .ops import bucket_exchange

    words = phrase.split(" ")
    k = len(words)
    widx = pd.DataFrame({"tok": words,
                         "i": np.arange(k, dtype=np.int64)})

    def votes(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].fillna("").str.split(" ")
        ex = pd.DataFrame({id_col: df[id_col].astype("int64"),
                           "tok": toks}).explode("tok",
                                                 ignore_index=True)
        ex["pos"] = ex.groupby(id_col).cumcount().astype("int64")
        ex = ex[ex["tok"].isin(set(words))]
        v = ex.merge(widx, on="tok")
        v["adj"] = v["pos"] - v["i"]
        return v.loc[v["adj"] >= 0, [id_col, "adj"]]

    def reduce_doc(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby([id_col, "adj"]).size()
        starts = g[g == k].reset_index()
        if not len(starts):
            return pd.DataFrame({id_col: np.empty(0, np.int64),
                                 "n_matches": np.empty(0, np.int64),
                                 "first_pos": np.empty(0, np.int64)})
        agg = starts.groupby(id_col)["adj"].agg(["count", "min"])
        return pd.DataFrame({
            id_col: agg.index.to_numpy(np.int64),
            "n_matches": agg["count"].to_numpy(np.int64),
            "first_pos": agg["min"].to_numpy(np.int64)})

    return bucket_exchange(ds.map_batches(votes, batch_format="pandas"),
                           [id_col], reduce_doc, num_buckets, "pandas")


_SOUNDEX_MAP = str.maketrans("abcdefghijklmnopqrstuvwxyz",
                             "01230120022455012623010202")


def soundex_vec(words: pd.Series) -> pd.Series:
    """Simple Soundex (the NARA phonetic blocking code, vowel-separated
    variant: a e i o u y h w code '0' and SEPARATE equal codes): first
    letter + collapsed non-zero codes of the rest, padded/truncated to
    4. The run collapse is '(\\d)\\1+ → \\1' — the SQL twin reproduces
    it with 5 nested pairwise replaces per digit (exact for runs ≤ 32,
    i.e. any real word). Non-alphabetic chars drop; empty → ''."""
    import re

    w = words.fillna("").str.lower().str.replace("[^a-z]", "",
                                                 regex=True)
    coded = w.str.translate(_SOUNDEX_MAP)
    collapsed = coded.str.replace(r"(\d)\1+", r"\1", regex=True)
    rest = collapsed.str[1:].str.replace("0", "", regex=False)
    out = (w.str[:1].str.upper() + rest).str[:4].str.pad(
        4, side="right", fillchar="0")
    return out.where(w.str.len() > 0, "")

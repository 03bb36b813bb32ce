/* Native replay kernels for the array-backed cache (repro.cache.arraycache)
 * and the stack-distance monitor (repro.monitor.stack_distance).
 *
 * Each replay function walks a full address trace through one
 * set-associative cache whose state lives in caller-owned numpy arrays:
 *
 *   tags  (num_sets x ways) int64, -1 == empty way
 *   stamp (num_sets x ways) int64, last-touch / bucket-entry sequence number
 *   rrpv  (num_sets x ways) int64, re-reference prediction values (RRIP only)
 *
 * plus policy-specific side state (PSEL counters, PDP protection deadlines,
 * reuse-distance samplers).
 *
 * Exactness: every kernel is bit-identical to the object model in
 * repro.cache.replacement built with the same region layout.  The
 * randomized policies (BIP/DIP, BRRIP/DRRIP, TA-DRRIP, Random) draw from a
 * splitmix64 stream that repro.cache.hashing.SplitMix64 reproduces, and the
 * dueling policies read the leader wiring of
 * repro.cache.replacement.rrip.leader_roles.
 *
 * A region with zero sets or zero ways (a partition warm-resized to no
 * capacity) misses every access.  The set-associative kernels check for it
 * once on entry; only the capacity-independent side state then advances
 * (PSEL counters of the dueling policies, PDP's reuse sampler), as in a
 * zero-capacity object policy.
 *
 * Set indexing is modulo by default; every replay kernel also accepts
 * hashed indexing (hashed != 0), where the set index is the splitmix64
 * finalizer of (address XOR index_seed * golden-ratio), matching
 * repro.cache.hashing.set_index.
 *
 * Fully-associative RRIP regions (the one set of an ideal partition, the
 * managed regions of Vantage) may be thousands of lines wide, so a call
 * that replays at least as many accesses as its regions hold lines builds
 * a per-call RRPV bucket index (one FIFO per RRPV level plus an aging
 * offset: O(1) victims) and writes the true RRPVs back before returning;
 * shorter calls scan.  The arrays mean the same either way.
 *
 * ideal_lru_run replays a fully-associative LRU region (an idealized
 * partition) with a Mattson stack-distance pass over its resident lines
 * and new accesses: an open-addressing last-position table, and a rank
 * structure that marks the live positions in a bitmap under a Fenwick
 * tree over its 64-bit words' popcounts.  stack_fold is the same pass
 * over a stack-distance monitor's caller-owned table, rank structure and
 * histogram, so the LRU miss-curve monitors feed their sub-streams in
 * chunks (the resumable-runtime contract) without ever re-replaying.  It
 * also does what a UMON's hardware does beside each access (Sec. VI-C):
 * it samples the raw accesses by address hash, and a read takes the hits
 * at the few capacities the miss curve interpolates between.
 *
 * A way, set or ideal partitioned cache has no kernel of its own: its
 * partitions are independent regions, and its replay is one group record
 * (group_run) that splits the trace by region in scratch and runs one of
 * the kernels above per region, over that region's sub-trace, state,
 * random stream and PSEL.  Vantage, whose partitions share a victim
 * region, has vantage_run.  Both take a Talus logical pair's steering in
 * place of per-access partition ids: the pair's H3 hash against its
 * limit register sends each access to its alpha or beta partition
 * (Sec. VI-B, Fig. 7b), as the hardware does beside each access.
 *
 * Every replay kernel is chunk-resumable by construction: all state is
 * passed in and returned through caller-owned arrays, so calling a kernel
 * on a trace split at arbitrary boundaries is bit-identical to one call on
 * the whole trace.  Python reaches the replay kernels and the monitor fold
 * only through the batch dispatcher at the end of this file
 * (batch_run_threaded), one batch_task record per replay or fold.
 *
 * Compiled on demand by repro.cache._native with a plain `cc -O3 -shared`;
 * no Python headers are required (the library is loaded through ctypes).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EMPTY (-1)
#define I64_MAX 0x7fffffffffffffffLL
#define GOLDEN 0x9E3779B97F4A7C15ULL

/* splitmix64 finalizer; matches repro.cache.hashing.mix64. */
static inline uint64_t mix64(uint64_t v)
{
    v += GOLDEN;
    v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ULL;
    v = (v ^ (v >> 27)) * 0x94D049BB133111EBULL;
    return v ^ (v >> 31);
}

/* Set index: Python-compatible modulo, or the mix64 hash of
 * (address XOR index_seed * golden), as repro.cache.hashing.set_index. */
static inline int64_t set_of(int64_t a, int64_t num_sets, int64_t hashed,
                             uint64_t seed_mul)
{
    if (num_sets == 1)
        return 0;
    if (hashed)
        return (int64_t)(mix64((uint64_t)a ^ seed_mul) % (uint64_t)num_sets);
    int64_t s = a % num_sets;
    return (s < 0) ? s + num_sets : s;
}

/* Talus's shadow-pair steering (Sec. VI-B, Fig. 7b): an access goes to
 * the alpha shadow partition iff the H3 hash of its address is below the
 * pair's limit register.  H3 is XOR-linear over GF(2), so the hash is the
 * XOR of one entry per input byte of the byte-sliced tables `lut` (`bytes`
 * tables of 256 entries, repro.cache.hashing.H3Hash._byte_luts; entries
 * for bits past the hash's input width are zero).  Matches
 * SamplingFunction.goes_to_alpha bit for bit. */
typedef struct {
    const uint64_t *lut;
    int64_t bytes, limit, alpha, beta;
} steering;

static inline int64_t steer(const steering *st, int64_t a)
{
    uint64_t v = (uint64_t)a, h = 0;
    for (int64_t k = 0; k < st->bytes; k++, v >>= 8)
        h ^= st->lut[(k << 8) | (v & 0xFF)];
    return h < (uint64_t)st->limit ? st->alpha : st->beta;
}

/* splitmix64 stream; the uniform double construction matches the Python
 * fallback: take the top 53 bits of the state-advanced output. */
static inline uint64_t splitmix64_next(uint64_t *state)
{
    uint64_t z = (*state += GOLDEN);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static inline double uniform01(uint64_t *state)
{
    return (double)(splitmix64_next(state) >> 11) * (1.0 / 9007199254740992.0);
}

/* ------------------------------------------------------------------ LRU --- */

/* Replay `n` addresses through an LRU cache; returns the miss count and
 * leaves tags/stamp/counter updated so further accesses may continue.
 * lip != 0 selects LRU-position insertion (the LIP policy): a missing line
 * is inserted as the *next victim* instead of at MRU. */
int64_t lru_run(const int64_t *addrs, int64_t n, int64_t num_sets,
                int64_t ways, int64_t *tags, int64_t *stamp,
                int64_t *counter_io, int64_t lip, int64_t hashed,
                int64_t index_seed)
{
    int64_t misses = 0;
    int64_t t = counter_io[0];
    uint64_t seed_mul = (uint64_t)index_seed * GOLDEN;

    if (num_sets <= 0 || ways <= 0)
        return n;
    for (int64_t i = 0; i < n; i++) {
        int64_t a = addrs[i];
        int64_t s = set_of(a, num_sets, hashed, seed_mul);
        int64_t *row = tags + s * ways;
        int64_t *st = stamp + s * ways;
        int64_t hit = -1, empty = -1, victim = 0;
        int64_t best = I64_MAX;

        for (int64_t w = 0; w < ways; w++) {
            int64_t tag = row[w];
            if (tag == a) { hit = w; break; }
            if (tag == EMPTY) {
                if (empty < 0) empty = w;
            } else if (st[w] < best) {
                best = st[w];
                victim = w;
            }
        }
        t++;
        if (hit >= 0) {
            st[hit] = t;
        } else {
            misses++;
            int64_t w = (empty >= 0) ? empty : victim;
            row[w] = a;
            if (lip && best != I64_MAX)
                st[w] = best - 1;   /* in front of the current LRU line */
            else
                st[w] = t;
        }
    }
    counter_io[0] = t;
    return misses;
}

/* --------------------------------------------------------------- Random --- */

/* Replay `n` addresses through a random-replacement cache.  Hits leave all
 * state untouched; misses fill the first empty way, or evict a uniformly
 * random way when the set is full (every way is resident then, so this is
 * uniform over resident lines — the object model's RandomPolicy semantics).
 * Victims are drawn from the shared splitmix64 stream, which the object
 * model's RandomPolicy draws from in the same order. */
int64_t random_run(const int64_t *addrs, int64_t n, int64_t num_sets,
                   int64_t ways, int64_t *tags, uint64_t *rng_state,
                   int64_t hashed, int64_t index_seed)
{
    int64_t misses = 0;
    uint64_t seed_mul = (uint64_t)index_seed * GOLDEN;

    if (num_sets <= 0 || ways <= 0)
        return n;
    for (int64_t i = 0; i < n; i++) {
        int64_t a = addrs[i];
        int64_t s = set_of(a, num_sets, hashed, seed_mul);
        int64_t *row = tags + s * ways;
        int64_t hit = -1, empty = -1;

        for (int64_t w = 0; w < ways; w++) {
            int64_t tag = row[w];
            if (tag == a) { hit = w; break; }
            if (tag == EMPTY && empty < 0) empty = w;
        }
        if (hit >= 0)
            continue;
        misses++;
        int64_t w = empty;
        if (w < 0)
            w = (int64_t)(splitmix64_next(rng_state) % (uint64_t)ways);
        row[w] = a;
    }
    return misses;
}

/* ----------------------------------------------------------------- RRIP --- */

/* Insertion modes (must match arraycache.py). */
#define MODE_SRRIP 0
#define MODE_BRRIP 1
#define MODE_DRRIP 2

/* DRRIP set roles (must match arraycache.py / replacement.rrip.DuelRole). */
#define ROLE_FOLLOWER 0
#define ROLE_LEADER_SRRIP 1
#define ROLE_LEADER_BRRIP 2
#define ROLE_ADDRESS_DUEL 3

static inline int64_t address_role(int64_t a, int64_t leader_levels)
{
    uint64_t bucket = ((uint64_t)a * GOLDEN) & 1023ULL;
    if (bucket < (uint64_t)leader_levels)
        return ROLE_LEADER_SRRIP;
    if (bucket < (uint64_t)(2 * leader_levels))
        return ROLE_LEADER_BRRIP;
    return ROLE_FOLLOWER;
}

/* Saturating PSEL update for a miss of the given dueling role. */
static inline void psel_update(int64_t role, int64_t *psel, int64_t psel_max)
{
    if (role == ROLE_LEADER_SRRIP && *psel < psel_max)
        (*psel)++;
    else if (role == ROLE_LEADER_BRRIP && *psel > 0)
        (*psel)--;
}

/* A zero-capacity set-dueling region (DRRIP/DIP): every access misses and
 * only the PSEL counter advances.  Returns the miss count. */
static int64_t duel_only_run(const int64_t *addrs, int64_t n,
                             int64_t num_sets, const int64_t *roles,
                             int64_t *psel_io, int64_t leader_levels,
                             int64_t psel_max, int64_t hashed,
                             int64_t index_seed)
{
    uint64_t seed_mul = (uint64_t)index_seed * GOLDEN;
    if (num_sets <= 0)
        return n;
    for (int64_t i = 0; i < n; i++) {
        int64_t a = addrs[i];
        int64_t role = roles[set_of(a, num_sets, hashed, seed_mul)];
        if (role == ROLE_ADDRESS_DUEL)
            role = address_role(a, leader_levels);
        psel_update(role, psel_io, psel_max);
    }
    return n;
}

/* Look `a` up in one set's ways: returns the hit way or -1, and stores the
 * lowest empty way (or -1) in *empty. */
static inline int64_t scan_find(const int64_t *row, int64_t ways, int64_t a,
                                int64_t *empty)
{
    *empty = -1;
    for (int64_t w = 0; w < ways; w++) {
        int64_t tag = row[w];
        if (tag == a)
            return w;
        if (tag == EMPTY && *empty < 0)
            *empty = w;
    }
    return -1;
}

/* A full set's RRIP victim by scan: the oldest entrant (lowest stamp, then
 * lowest way) of the highest RRPV present, after which every way ages so
 * that bucket sits at max_rrpv. */
static int64_t scan_rrip_victim(int64_t *rv, const int64_t *st, int64_t ways,
                                int64_t max_rrpv)
{
    int64_t maxp = -1;
    for (int64_t w = 0; w < ways; w++)
        if (rv[w] > maxp) maxp = rv[w];
    int64_t victim = 0, best = I64_MAX;
    for (int64_t w = 0; w < ways; w++)
        if (rv[w] == maxp && st[w] < best) { best = st[w]; victim = w; }
    int64_t d = max_rrpv - maxp;
    if (d > 0)
        for (int64_t w = 0; w < ways; w++) rv[w] += d;
    return victim;
}

/* ------------------------------------------------ RRPV bucket index --- *
 *
 * A fully-associative RRIP region (the one set of an ideal partition, or a
 * Vantage managed region) would otherwise scan all its lines on every
 * miss.  For one kernel call the index below keeps what the object model's
 * _RRIPBase._buckets keeps: one FIFO per RRPV level holding that level's
 * lines in stamp order, plus a per-region aging offset `off`.
 *
 *   - While the index is open, a line's RRPV slot (rrpv / node_aux) holds
 *     its true RRPV minus its region's `off`, and its FIFO is that stored
 *     value modulo `levels`, the power of two at or above max_rrpv + 1.
 *     Aging every line by d is then `off += d`, which also rotates the
 *     FIFOs onto their new levels: the FIFOs that rotate onto levels
 *     0..d-1 held levels above max_rrpv - d, or none, so they are empty.
 *   - A hit moves the line to the tail of level 0; an insertion goes to
 *     the tail of its insertion level.  New stamps exceed every stamp in
 *     the region, so each FIFO stays in stamp order.
 *   - The victim is the head of the highest non-empty level, after which
 *     `off` grows by max_rrpv minus that level.  Its RRPV slot keeps the
 *     aged value max_rrpv, as the scan leaves it.
 *   - On open, each region's lines are sorted by (stamp, position): the
 *     position (way index, or place in the Vantage region list) breaks
 *     stamp ties as the scans do.  On close, every resident line gets its
 *     region's `off` back, so the caller's arrays hold true RRPVs again.
 *
 * A call builds the index only when it replays at least as many accesses
 * as its regions hold lines; shorter calls (scalar access(), small chunks)
 * keep the scans, which cost nothing to set up.  Opening allocates all the
 * scratch before the first state write, so an allocation failure leaves
 * the cache untouched. */

/* Sort scratch entry: a line's stamp and slot. */
typedef struct {
    int64_t stamp, slot;
} ri_entry;

typedef struct {
    int64_t levels;        /* FIFOs per region: a power of two */
    int64_t max_rrpv;
    int64_t *val;          /* the caller's RRPV slots, offset while open */
    int64_t *prev, *next;  /* FIFO links, per slot */
    int64_t *head, *tail;  /* per (region, stored RRPV mod `levels`) */
    int64_t *off;          /* per-region aging offset */
    ri_entry *sort;        /* 2 * widest entries: ri_build's scratch */
    int64_t widest;        /* most lines one region holds on open */
} rrpv_index;

/* Allocate an empty index over `slots` slots and `regions` regions, with
 * sort scratch for regions of up to `widest` lines; returns 0, or -1 when
 * memory could not be allocated. */
static int ri_alloc(rrpv_index *ix, int64_t slots, int64_t regions,
                    int64_t max_rrpv, int64_t *val, int64_t widest)
{
    int64_t levels = 1;
    while (levels <= max_rrpv)
        levels <<= 1;
    int64_t anchors = regions * levels;
    int64_t words = 2 * slots + 2 * anchors + regions;
    int64_t *mem = malloc((size_t)words * sizeof(int64_t)
                          + (size_t)(2 * widest) * sizeof(ri_entry));
    if (!mem)
        return -1;
    ix->levels = levels;
    ix->max_rrpv = max_rrpv;
    ix->val = val;
    ix->prev = mem;
    ix->next = mem + slots;
    ix->head = mem + 2 * slots;
    ix->tail = ix->head + anchors;
    ix->off = ix->tail + anchors;
    ix->sort = (ri_entry *)(mem + words);
    ix->widest = widest;
    memset(ix->head, 0xFF, (size_t)(2 * anchors) * sizeof(int64_t));
    memset(ix->off, 0, (size_t)regions * sizeof(int64_t));
    return 0;
}

static inline void ri_free(rrpv_index *ix)
{
    free(ix->prev);
}

static inline int64_t ri_anchor(const rrpv_index *ix, int64_t r,
                                int64_t stored)
{
    return r * ix->levels
        + (int64_t)((uint64_t)stored & (uint64_t)(ix->levels - 1));
}

/* Append `slot` to the tail of region r's FIFO for true RRPV `rrpv`. */
static inline void ri_push(rrpv_index *ix, int64_t r, int64_t slot,
                           int64_t rrpv)
{
    int64_t stored = rrpv - ix->off[r];
    int64_t b = ri_anchor(ix, r, stored);
    int64_t last = ix->tail[b];
    ix->val[slot] = stored;
    ix->prev[slot] = last;
    ix->next[slot] = -1;
    if (last >= 0) ix->next[last] = slot; else ix->head[b] = slot;
    ix->tail[b] = slot;
}

static inline void ri_unlink(rrpv_index *ix, int64_t r, int64_t slot)
{
    int64_t b = ri_anchor(ix, r, ix->val[slot]);
    int64_t p = ix->prev[slot], q = ix->next[slot];
    if (p >= 0) ix->next[p] = q; else ix->head[b] = q;
    if (q >= 0) ix->prev[q] = p; else ix->tail[b] = p;
}

/* Hit priority: move `slot` to the tail of level 0. */
static inline void ri_promote(rrpv_index *ix, int64_t r, int64_t slot)
{
    ri_unlink(ix, r, slot);
    ri_push(ix, r, slot, 0);
}

/* Unlink and return region r's victim (-1 when it is empty), aging the
 * survivors. */
static inline int64_t ri_evict(rrpv_index *ix, int64_t r)
{
    for (int64_t level = ix->max_rrpv; level >= 0; level--) {
        int64_t slot = ix->head[ri_anchor(ix, r, level - ix->off[r])];
        if (slot < 0)
            continue;
        ri_unlink(ix, r, slot);
        ix->off[r] += ix->max_rrpv - level;
        ix->val[slot] = ix->max_rrpv;
        return slot;
    }
    return -1;
}

/* Link region r's `k` lines, given in position order in ix->sort[0, k),
 * into their FIFOs in (stamp, position) order.  The offset is still 0, so
 * the RRPV slots keep their values. */
static void ri_build(rrpv_index *ix, int64_t r, int64_t k)
{
    /* Bottom-up merge sort by stamp; taking the left run on ties keeps
     * equal stamps in position order. */
    ri_entry *src = ix->sort, *dst = ix->sort + ix->widest;
    for (int64_t width = 1; width < k; width *= 2) {
        for (int64_t lo = 0; lo < k; lo += 2 * width) {
            int64_t mid = (lo + width < k) ? lo + width : k;
            int64_t hi = (lo + 2 * width < k) ? lo + 2 * width : k;
            int64_t i = lo, j = mid, o = lo;
            while (i < mid && j < hi)
                dst[o++] = (src[j].stamp < src[i].stamp) ? src[j++]
                                                         : src[i++];
            while (i < mid) dst[o++] = src[i++];
            while (j < hi) dst[o++] = src[j++];
        }
        ri_entry *swap = src; src = dst; dst = swap;
    }
    for (int64_t i = 0; i < k; i++)
        ri_push(ix, r, src[i].slot, ix->val[src[i].slot]);
}

/* The index of a one-set region (an ideal partition): the bucket index
 * plus a tag -> way table (open addressing over way indices, -1 == empty
 * slot, backward-shift deletion) and the lowest empty way.  Ways never
 * empty during a call, so the empty ways fill lowest first, as scan_find
 * picks them. */
typedef struct {
    rrpv_index ix;
    int64_t *row;          /* the set's tags */
    int64_t ways;
    int64_t *table;
    uint64_t tmask;
    int64_t next_empty;    /* lowest empty way, or `ways` */
} way_index;

/* The table slot holding `a`, or the empty slot ending its probe chain. */
static inline uint64_t wi_probe(const way_index *wx, int64_t a)
{
    uint64_t slot = mix64((uint64_t)a) & wx->tmask;
    while (wx->table[slot] >= 0 && wx->row[wx->table[slot]] != a)
        slot = (slot + 1) & wx->tmask;
    return slot;
}

/* Open the index of a one-set cache (tags `row`, RRPVs `rv`, stamps `st`)
 * whose call replays at least as many accesses as the set has ways:
 * returns 1 when open, 0 to scan, or -1 when memory could not be
 * allocated. */
static int wi_open(way_index *wx, int64_t n, int64_t num_sets, int64_t ways,
                   int64_t max_rrpv, int64_t *row, int64_t *rv,
                   const int64_t *st)
{
    if (num_sets != 1 || n < ways)
        return 0;
    uint64_t tsize = 64;
    while (tsize < (uint64_t)ways * 2)
        tsize <<= 1;
    wx->table = malloc(tsize * sizeof(int64_t));
    if (!wx->table)
        return -1;
    if (ri_alloc(&wx->ix, ways, 1, max_rrpv, rv, ways) < 0) {
        free(wx->table);
        return -1;
    }
    memset(wx->table, 0xFF, tsize * sizeof(int64_t));
    wx->row = row;
    wx->ways = ways;
    wx->tmask = tsize - 1;
    wx->next_empty = ways;
    int64_t k = 0;
    for (int64_t w = 0; w < ways; w++) {
        if (row[w] == EMPTY) {
            if (wx->next_empty == ways) wx->next_empty = w;
            continue;
        }
        wx->table[wi_probe(wx, row[w])] = w;
        wx->ix.sort[k].stamp = st[w];
        wx->ix.sort[k++].slot = w;
    }
    ri_build(&wx->ix, 0, k);
    return 1;
}

/* The way holding `a`, or -1. */
static inline int64_t wi_find(const way_index *wx, int64_t a)
{
    return wx->table[wi_probe(wx, a)];
}

/* The way a miss fills: the lowest empty way, else the evicted victim. */
static inline int64_t wi_take(way_index *wx)
{
    if (wx->next_empty < wx->ways)
        return wx->next_empty;
    int64_t victim = ri_evict(&wx->ix, 0);
    uint64_t mask = wx->tmask;
    uint64_t hole = wi_probe(wx, wx->row[victim]);
    wx->table[hole] = -1;
    for (uint64_t i = (hole + 1) & mask; wx->table[i] >= 0;
         i = (i + 1) & mask) {
        uint64_t home = mix64((uint64_t)wx->row[wx->table[i]]) & mask;
        if (((i - home) & mask) >= ((i - hole) & mask)) {
            wx->table[hole] = wx->table[i];
            wx->table[i] = -1;
            hole = i;
        }
    }
    return victim;
}

/* Index the line just written to way `w` at true RRPV `rrpv`. */
static inline void wi_fill(way_index *wx, int64_t w, int64_t rrpv)
{
    wx->table[wi_probe(wx, wx->row[w])] = w;
    ri_push(&wx->ix, 0, w, rrpv);
    while (wx->next_empty < wx->ways && wx->row[wx->next_empty] != EMPTY)
        wx->next_empty++;
}

/* Write the true RRPVs back and free the scratch. */
static void wi_close(way_index *wx)
{
    int64_t off = wx->ix.off[0];
    for (int64_t w = 0; w < wx->ways; w++)
        if (wx->row[w] != EMPTY)
            wx->ix.val[w] += off;
    ri_free(&wx->ix);
    free(wx->table);
}

/* Replay `n` addresses through an RRIP-family cache.
 *
 * Victim selection replicates the object model's bucket semantics without
 * materializing buckets: the victim is the oldest *bucket entrant* (stamp)
 * among lines at the highest RRPV present, after which every line ages up
 * by the same delta.  Stamps are refreshed exactly when the object model
 * reorders a line within its bucket (insertion and hit promotion), so the
 * SRRIP kernel is bit-identical to SRRIPPolicy.  A one-set cache (an ideal
 * partition) finds tags and victims through the RRPV bucket index above
 * when the call is at least as long as the set is wide; otherwise, and for
 * every multi-set cache, victims come from a scan of the set.
 *
 * `roles` (per set) and `psel_io`/`psel_max`/`leader_levels` are only read
 * in MODE_DRRIP; `epsilon`/`rng_state` only in MODE_BRRIP and MODE_DRRIP.
 * Returns the miss count, or -3 when the index's scratch memory could not
 * be allocated (the cache is then untouched).
 */
int64_t rrip_run(const int64_t *addrs, int64_t n, int64_t num_sets,
                 int64_t ways, int64_t max_rrpv, int64_t *tags,
                 int64_t *rrpv, int64_t *stamp, int64_t *counter_io,
                 int64_t mode, double epsilon, uint64_t *rng_state,
                 const int64_t *roles, int64_t *psel_io, int64_t psel_max,
                 int64_t leader_levels, int64_t hashed, int64_t index_seed)
{
    int64_t misses = 0;
    int64_t t = counter_io[0];
    int64_t psel = psel_io ? psel_io[0] : 0;
    uint64_t seed_mul = (uint64_t)index_seed * GOLDEN;

    if (num_sets <= 0 || ways <= 0)
        return (mode == MODE_DRRIP)
            ? duel_only_run(addrs, n, num_sets, roles, psel_io, leader_levels,
                            psel_max, hashed, index_seed)
            : n;
    way_index wx;
    int open = wi_open(&wx, n, num_sets, ways, max_rrpv, tags, rrpv, stamp);
    if (open < 0)
        return -3;
    way_index *ox = open ? &wx : NULL;
    for (int64_t i = 0; i < n; i++) {
        int64_t a = addrs[i];
        int64_t s = set_of(a, num_sets, hashed, seed_mul);
        int64_t *row = tags + s * ways;
        int64_t *rv = rrpv + s * ways;
        int64_t *st = stamp + s * ways;
        int64_t empty = -1;
        int64_t hit = ox ? wi_find(ox, a) : scan_find(row, ways, a, &empty);
        t++;
        if (hit >= 0) {
            /* hit priority */
            if (ox) ri_promote(&ox->ix, 0, hit); else rv[hit] = 0;
            st[hit] = t;
            continue;
        }
        misses++;

        int64_t role = ROLE_FOLLOWER;
        if (mode == MODE_DRRIP) {
            role = roles[s];
            if (role == ROLE_ADDRESS_DUEL)
                role = address_role(a, leader_levels);
            psel_update(role, &psel, psel_max);
        }

        if (ox)
            empty = wi_take(ox);
        else if (empty < 0)
            empty = scan_rrip_victim(rv, st, ways, max_rrpv);

        int64_t ins = max_rrpv - 1; /* SRRIP long re-reference insertion */
        int bimodal = 0;
        if (mode == MODE_BRRIP) {
            bimodal = 1;
        } else if (mode == MODE_DRRIP) {
            if (role == ROLE_LEADER_BRRIP)
                bimodal = 1;
            else if (role == ROLE_FOLLOWER)
                bimodal = psel > psel_max / 2;
        }
        if (bimodal && uniform01(rng_state) >= epsilon)
            ins = max_rrpv;

        row[empty] = a;
        st[empty] = t;
        if (ox) wi_fill(ox, empty, ins); else rv[empty] = ins;
    }
    if (ox)
        wi_close(ox);
    counter_io[0] = t;
    if (psel_io)
        psel_io[0] = psel;
    return misses;
}

/* ------------------------------------------------------------- TA-DRRIP --- */

/* Thread-aware DRRIP (Jaleel et al., PACT 2008 as used by the Talus paper's
 * multiprogram baseline): one PSEL counter *per thread* (stream), each
 * updated only by that thread's misses in the address-hash dueling
 * constituencies, so every co-running app converges to its own SRRIP/BRRIP
 * preference.  `threads[i]` carries the id of the thread issuing access i
 * (NULL == all stream 0); `psel` holds `num_streams` counters.  The
 * bimodal draws come from the shared splitmix64 stream, like DRRIP's.
 * `miss_out`, when non-NULL, accumulates per-thread miss counts (never
 * reset here — it is persistent caller state, like the PSEL counters).
 * A one-set cache uses the RRPV bucket index as rrip_run does.  Returns the
 * total miss count, -1 on an out-of-range thread id, or -3 when the
 * index's scratch memory could not be allocated (the cache untouched). */
int64_t tadrrip_run(const int64_t *addrs, const int64_t *threads, int64_t n,
                    int64_t num_sets, int64_t ways, int64_t max_rrpv,
                    int64_t *tags, int64_t *rrpv, int64_t *stamp,
                    int64_t *counter_io, double epsilon, uint64_t *rng_state,
                    int64_t *psel, int64_t num_streams, int64_t psel_max,
                    int64_t leader_levels, int64_t hashed, int64_t index_seed,
                    int64_t *miss_out)
{
    int64_t misses = 0;
    int64_t t = counter_io[0];
    uint64_t seed_mul = (uint64_t)index_seed * GOLDEN;

    if (num_sets <= 0 || ways <= 0) {
        /* Zero-capacity region: per-thread misses and PSELs still move. */
        for (int64_t i = 0; i < n; i++) {
            int64_t tid = threads ? threads[i] : 0;
            if (tid < 0 || tid >= num_streams)
                return -1;
            if (num_sets <= 0)
                continue;
            if (miss_out)
                miss_out[tid]++;
            psel_update(address_role(addrs[i], leader_levels), psel + tid,
                        psel_max);
        }
        return n;
    }
    way_index wx;
    int open = wi_open(&wx, n, num_sets, ways, max_rrpv, tags, rrpv, stamp);
    if (open < 0)
        return -3;
    way_index *ox = open ? &wx : NULL;
    for (int64_t i = 0; i < n; i++) {
        int64_t a = addrs[i];
        int64_t tid = threads ? threads[i] : 0;
        if (tid < 0 || tid >= num_streams) {
            misses = -1;
            break;
        }
        int64_t s = set_of(a, num_sets, hashed, seed_mul);
        int64_t *row = tags + s * ways;
        int64_t *rv = rrpv + s * ways;
        int64_t *st = stamp + s * ways;
        int64_t empty = -1;
        int64_t hit = ox ? wi_find(ox, a) : scan_find(row, ways, a, &empty);
        t++;
        if (hit >= 0) {
            /* hit priority */
            if (ox) ri_promote(&ox->ix, 0, hit); else rv[hit] = 0;
            st[hit] = t;
            continue;
        }
        misses++;
        if (miss_out)
            miss_out[tid]++;

        int64_t role = address_role(a, leader_levels);
        psel_update(role, psel + tid, psel_max);

        if (ox)
            empty = wi_take(ox);
        else if (empty < 0)
            empty = scan_rrip_victim(rv, st, ways, max_rrpv);

        int64_t ins = max_rrpv - 1;
        int bimodal = (role == ROLE_LEADER_BRRIP) ||
                      (role == ROLE_FOLLOWER && psel[tid] > psel_max / 2);
        if (bimodal && uniform01(rng_state) >= epsilon)
            ins = max_rrpv;

        row[empty] = a;
        st[empty] = t;
        if (ox) wi_fill(ox, empty, ins); else rv[empty] = ins;
    }
    if (ox)
        wi_close(ox);
    if (misses >= 0)
        counter_io[0] = t;
    return misses;
}

/* --------------------------------------------------------------- Belady --- */

/* Belady MIN: evict the resident line whose next use is furthest in the
 * future.  The future is precomputed — next_use[i] is the trace position of
 * the next access to addrs[i]'s line (I64_MAX when it is never touched
 * again), built once by a vectorized two-pass numpy argsort/scatter in
 * arraycache.belady_next_use and shared across every capacity point of a
 * miss curve.
 *
 * State (all caller-owned, so the replay is chunk-resumable):
 *   ht_tag/ht_val      open-addressing residency table tag -> current next
 *                      use (ht_tag[slot] == -1 marks an empty slot;
 *                      deletion is by backward shift)
 *   heap_key/heap_tag  lazy binary max-heap of (next_use, tag) entries;
 *                      every access pushes one entry, evictions pop until
 *                      the top matches the residency table (stale entries
 *                      from re-pushed hits are skipped), exactly the
 *                      object model's heapq-with-invalidation
 *   heap_io            [0] = live heap length, [1] = resident line count
 *
 * Ties among never-reused lines are broken by heap order rather than the
 * object model's tag order; MIN's miss count is invariant to that choice
 * (evicting any dead line leaves every future hit intact), which is why the
 * kernel is exact on miss counts — enforced by tests.  Returns the miss
 * count, or -2 when the heap would overflow heap_cap / underflow while
 * lines are resident (both defensive; the caller sizes the heap to the
 * trace length). */
int64_t belady_run(const int64_t *addrs, const int64_t *next_use, int64_t n,
                   int64_t capacity, int64_t *ht_tag, int64_t *ht_val,
                   int64_t tsize, int64_t *heap_key, int64_t *heap_tag,
                   int64_t heap_cap, int64_t *heap_io)
{
    uint64_t tmask = (uint64_t)(tsize - 1);
    int64_t misses = 0;

    for (int64_t i = 0; i < n; i++) {
        int64_t a = addrs[i];
        int64_t nu = next_use[i];

        uint64_t slot = mix64((uint64_t)a) & tmask;
        while (ht_tag[slot] != EMPTY && ht_tag[slot] != a)
            slot = (slot + 1) & tmask;

        if (heap_io[0] >= heap_cap)
            return -2;

        if (ht_tag[slot] == a) {
            /* Hit: renew the residency deadline, lazily re-push. */
            ht_val[slot] = nu;
        } else {
            misses++;
            if (capacity == 0)
                continue;
            if (heap_io[1] >= capacity) {
                /* Evict the furthest-next-use resident line. */
                for (;;) {
                    int64_t len = heap_io[0];
                    if (len <= 0)
                        return -2;
                    int64_t key = heap_key[0], tag = heap_tag[0];
                    /* Pop the root. */
                    len = --heap_io[0];
                    heap_key[0] = heap_key[len];
                    heap_tag[0] = heap_tag[len];
                    int64_t j = 0;
                    for (;;) {
                        int64_t l = 2 * j + 1, r = l + 1, big = j;
                        if (l < len && heap_key[l] > heap_key[big]) big = l;
                        if (r < len && heap_key[r] > heap_key[big]) big = r;
                        if (big == j) break;
                        int64_t tk = heap_key[j]; heap_key[j] = heap_key[big];
                        heap_key[big] = tk;
                        int64_t tt = heap_tag[j]; heap_tag[j] = heap_tag[big];
                        heap_tag[big] = tt;
                        j = big;
                    }
                    uint64_t vs = mix64((uint64_t)tag) & tmask;
                    while (ht_tag[vs] != EMPTY && ht_tag[vs] != tag)
                        vs = (vs + 1) & tmask;
                    if (ht_tag[vs] != tag || ht_val[vs] != key)
                        continue;   /* stale entry: deadline since renewed */
                    /* Backward-shift delete. */
                    ht_tag[vs] = EMPTY;
                    uint64_t hole = vs;
                    uint64_t k = (vs + 1) & tmask;
                    while (ht_tag[k] != EMPTY) {
                        uint64_t home = mix64((uint64_t)ht_tag[k]) & tmask;
                        if (((k - home) & tmask) >= ((k - hole) & tmask)) {
                            ht_tag[hole] = ht_tag[k];
                            ht_val[hole] = ht_val[k];
                            ht_tag[k] = EMPTY;
                            hole = k;
                        }
                        k = (k + 1) & tmask;
                    }
                    heap_io[1]--;
                    break;
                }
                /* The delete may have moved our probe target; re-find. */
                slot = mix64((uint64_t)a) & tmask;
                while (ht_tag[slot] != EMPTY)
                    slot = (slot + 1) & tmask;
            }
            ht_tag[slot] = a;
            ht_val[slot] = nu;
            heap_io[1]++;
        }
        /* Push (nu, a); hits and fills both push, as the object model does. */
        int64_t j = heap_io[0]++;
        heap_key[j] = nu;
        heap_tag[j] = a;
        while (j > 0) {
            int64_t parent = (j - 1) / 2;
            if (heap_key[parent] >= heap_key[j])
                break;
            int64_t tk = heap_key[j]; heap_key[j] = heap_key[parent];
            heap_key[parent] = tk;
            int64_t tt = heap_tag[j]; heap_tag[j] = heap_tag[parent];
            heap_tag[parent] = tt;
            j = parent;
        }
    }
    return misses;
}

/* ------------------------------------------------------------ LIP/BIP/DIP --- */

/* Insertion modes (must match arraycache.py). */
#define DIP_MODE_BIP 0
#define DIP_MODE_DIP 1

/* Replay through an LRU cache with dueled insertion (the DIP family).
 *
 * The structure is plain LRU (stamp order == OrderedDict order); only the
 * insertion position differs: MRU insertion refreshes the stamp, while a
 * bimodal (BIP-style) LRU-position insertion stamps the new line *older*
 * than the current LRU line, making it the next victim — exactly
 * OrderedDict.move_to_end(tag, last=False).
 *
 * DIP_MODE_BIP draws every insertion from the bimodal stream; DIP_MODE_DIP
 * set-duels plain-LRU leaders against BIP leaders through `roles`/`psel`,
 * reusing the DRRIP role encoding (LEADER_SRRIP == the plain-LRU
 * constituency, LEADER_BRRIP == the BIP constituency).
 */
int64_t dip_run(const int64_t *addrs, int64_t n, int64_t num_sets,
                int64_t ways, int64_t *tags, int64_t *stamp,
                int64_t *counter_io, int64_t mode, double epsilon,
                uint64_t *rng_state, const int64_t *roles, int64_t *psel_io,
                int64_t psel_max, int64_t leader_levels, int64_t hashed,
                int64_t index_seed)
{
    int64_t misses = 0;
    int64_t t = counter_io[0];
    int64_t psel = psel_io ? psel_io[0] : 0;
    uint64_t seed_mul = (uint64_t)index_seed * GOLDEN;

    if (num_sets <= 0 || ways <= 0)
        return (mode == DIP_MODE_DIP)
            ? duel_only_run(addrs, n, num_sets, roles, psel_io, leader_levels,
                            psel_max, hashed, index_seed)
            : n;
    for (int64_t i = 0; i < n; i++) {
        int64_t a = addrs[i];
        int64_t s = set_of(a, num_sets, hashed, seed_mul);
        int64_t *row = tags + s * ways;
        int64_t *st = stamp + s * ways;
        int64_t hit = -1, empty = -1, victim = 0;
        int64_t best = I64_MAX;

        for (int64_t w = 0; w < ways; w++) {
            int64_t tag = row[w];
            if (tag == a) { hit = w; break; }
            if (tag == EMPTY) {
                if (empty < 0) empty = w;
            } else if (st[w] < best) {
                best = st[w];
                victim = w;
            }
        }
        t++;
        if (hit >= 0) {
            st[hit] = t;
            continue;
        }
        misses++;

        int64_t role = ROLE_FOLLOWER;
        if (mode == DIP_MODE_DIP) {
            role = roles[s];
            if (role == ROLE_ADDRESS_DUEL)
                role = address_role(a, leader_levels);
            psel_update(role, &psel, psel_max);
        }

        int64_t w = (empty >= 0) ? empty : victim;
        row[w] = a;
        st[w] = t;

        int bip = 1;
        if (mode == DIP_MODE_DIP) {
            if (role == ROLE_LEADER_SRRIP)
                bip = 0;
            else if (role != ROLE_LEADER_BRRIP)
                bip = psel > psel_max / 2;
        }
        if (bip && uniform01(rng_state) >= epsilon) {
            /* LRU-position insertion: older than the oldest other line. */
            int64_t oldest = I64_MAX;
            for (int64_t w2 = 0; w2 < ways; w2++)
                if (w2 != w && row[w2] != EMPTY && st[w2] < oldest)
                    oldest = st[w2];
            if (oldest != I64_MAX)
                st[w] = oldest - 1;
        }
    }
    counter_io[0] = t;
    if (psel_io)
        psel_io[0] = psel;
    return misses;
}

/* ------------------------------------------------------------------ PDP --- */

/* Look up `tag` in an open-addressing (linear probe) table row; returns the
 * slot index.  Tables are sized so the load factor stays well below 1/2 and
 * entries are only removed by wholesale clears, so probing is exact
 * dict-get/set semantics. */
static inline int64_t ls_slot(const int64_t *ls_tags, uint64_t tmask,
                              int64_t tag)
{
    uint64_t slot = mix64((uint64_t)tag) & tmask;
    while (ls_tags[slot] != EMPTY && ls_tags[slot] != tag)
        slot = (slot + 1) & tmask;
    return (int64_t)slot;
}

/* One PDP protecting-distance recomputation for set `s`; mirrors
 * PDPPolicy._recompute_dp + select_protecting_distance exactly. */
static void pdp_recompute(int64_t *hist, int64_t max_dp, int64_t *dp_io,
                          int64_t total, int64_t *ls_tags, int64_t tsize,
                          int64_t *ls_count, int64_t clear_threshold)
{
    int64_t any = 0;
    for (int64_t d = 1; d <= max_dp; d++)
        if (hist[d]) { any = 1; break; }
    if (any && total > 0) {
        int64_t best_dp = max_dp;
        double best_score = -1.0;
        int64_t hits = 0, weighted = 0;
        for (int64_t dp = 1; dp <= max_dp; dp++) {
            hits += hist[dp];
            weighted += dp * hist[dp];
            int64_t miss = total - hits;
            int64_t occ = weighted + dp * miss;
            if (occ <= 0)
                continue;
            double score = (double)hits / (double)occ;
            if (score > best_score) {
                best_score = score;
                best_dp = dp;
            }
        }
        dp_io[0] = best_dp;
    } else if (any) {
        dp_io[0] = max_dp;
    }
    /* Decay the sample so the policy adapts to phase changes. */
    for (int64_t d = 1; d <= max_dp; d++)
        hist[d] = (hist[d] > 1) ? (hist[d] + 1) / 2 : 0;
    if (ls_count[0] > clear_threshold) {
        for (int64_t j = 0; j < tsize; j++)
            ls_tags[j] = EMPTY;
        ls_count[0] = 0;
    }
}

/* PDPPolicy._record_reuse for set `s`: advance the set clock, sample the
 * bounded reuse distance of `a`, and periodically recompute dp.  Returns
 * the advanced clock. */
static inline int64_t pdp_sample(int64_t a, int64_t s, int64_t *clock,
                                 int64_t *dp, int64_t *sample_count,
                                 int64_t *hist, int64_t max_dp,
                                 int64_t interval, int64_t clear_threshold,
                                 int64_t *ls_tags, int64_t *ls_clocks,
                                 int64_t *ls_count, int64_t tsize)
{
    int64_t *lst = ls_tags + s * tsize;
    int64_t *lsc = ls_clocks + s * tsize;
    int64_t c = ++clock[s];
    int64_t slot = ls_slot(lst, (uint64_t)(tsize - 1), a);
    if (lst[slot] == a) {
        int64_t d = c - lsc[slot];
        if (d <= max_dp)
            hist[s * (max_dp + 1) + d]++;
    } else {
        lst[slot] = a;
        ls_count[s]++;
    }
    lsc[slot] = c;
    sample_count[s]++;
    if (sample_count[s] % interval == 0)
        pdp_recompute(hist + s * (max_dp + 1), max_dp, dp + s,
                      sample_count[s], lst, tsize, ls_count + s,
                      clear_threshold);
    return c;
}

/* Replay through a PDP (protecting distance) cache; bit-identical to
 * repro.cache.replacement.pdp.PDPPolicy (which records only reuse distances
 * up to the largest candidate protecting distance).
 *
 * Per-set side state (all caller-owned):
 *   expires (num_sets x ways)        protection deadline per line
 *   clock / dp / sample_count (num_sets)
 *   hist (num_sets x (max_dp + 1))   bounded reuse-distance histogram
 *   ls_tags/ls_clocks (num_sets x tsize), ls_count (num_sets)
 *                                    last-seen open-addressing tables
 * tsize must be a power of two large enough that a table never fills
 * between clears (arraycache.py sizes it).  Returns the miss count
 * (bypassed fills count as misses, as in the object model).  A zero-way
 * region keeps sampling, as a zero-capacity PDPPolicy does.
 */
int64_t pdp_run(const int64_t *addrs, int64_t n, int64_t num_sets,
                int64_t ways, int64_t *tags, int64_t *stamp,
                int64_t *counter_io, int64_t *expires, int64_t *clock,
                int64_t *dp, int64_t *sample_count, int64_t *hist,
                int64_t max_dp, int64_t interval, int64_t clear_threshold,
                int64_t *ls_tags, int64_t *ls_clocks, int64_t *ls_count,
                int64_t tsize, int64_t hashed, int64_t index_seed)
{
    int64_t misses = 0;
    int64_t t = counter_io[0];
    uint64_t seed_mul = (uint64_t)index_seed * GOLDEN;

    if (num_sets <= 0 || ways <= 0) {
        if (num_sets > 0)
            for (int64_t i = 0; i < n; i++)
                pdp_sample(addrs[i],
                           set_of(addrs[i], num_sets, hashed, seed_mul),
                           clock, dp, sample_count, hist, max_dp, interval,
                           clear_threshold, ls_tags, ls_clocks, ls_count,
                           tsize);
        return n;
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t a = addrs[i];
        int64_t s = set_of(a, num_sets, hashed, seed_mul);
        int64_t *row = tags + s * ways;
        int64_t *st = stamp + s * ways;
        int64_t *ex = expires + s * ways;
        int64_t c = pdp_sample(a, s, clock, dp, sample_count, hist, max_dp,
                               interval, clear_threshold, ls_tags, ls_clocks,
                               ls_count, tsize);

        int64_t hit = -1, empty = -1;
        for (int64_t w = 0; w < ways; w++) {
            int64_t tag = row[w];
            if (tag == a) { hit = w; break; }
            if (tag == EMPTY && empty < 0) empty = w;
        }
        t++;
        if (hit >= 0) {
            ex[hit] = c + dp[s];
            st[hit] = t;
            continue;
        }
        misses++;
        int64_t w = empty;
        if (w < 0) {
            /* Oldest unprotected line, else bypass. */
            int64_t best = I64_MAX;
            for (int64_t w2 = 0; w2 < ways; w2++)
                if (ex[w2] <= c && st[w2] < best) { best = st[w2]; w = w2; }
            if (w < 0)
                continue;   /* every line protected: bypass the fill */
        }
        row[w] = a;
        ex[w] = c + dp[s];
        st[w] = t;
    }
    counter_io[0] = t;
    return misses;
}

/* -------------------------------------------------------- Vantage replay --- */

/* Vantage-like fine-grained partitioning (repro.cache.partition.vantage):
 * per-partition fully-associative LRU regions over the managed ~90 % of
 * capacity plus one shared insertion-ordered unmanaged victim region.
 * Unlike the set-associative kernels above, regions here are line-granular
 * and fully associative, so the state is an intrusive doubly-linked node
 * pool plus an open-addressing hash table — all caller-owned numpy arrays,
 * keeping the kernel chunk-resumable:
 *
 *   node_tag/node_prev/node_next  node pool (N = capacity + 1 entries; one
 *                                 spare absorbs the transient overshoot of
 *                                 insert-then-trim demotion); free nodes
 *                                 are chained through node_next from
 *                                 free_io[0]
 *   head/tail/occ                 per-region lists (num_parts managed
 *                                 regions, index num_parts = unmanaged);
 *                                 head = LRU / oldest, tail = MRU / newest
 *   ht_tag/ht_reg/ht_node         linear-probing table keyed by
 *                                 (tag, region); ht_node[slot] < 0 == empty;
 *                                 deletion is by backward shift, so no
 *                                 tombstones accumulate
 *
 * The same tag may be resident in several regions at once (the object
 * model keeps per-region dicts), which is why the table is keyed by the
 * pair.  Misses in a full region demote the policy's victim into the
 * unmanaged region (re-demotion moves it to the newest position);
 * unmanaged hits promote the line back into the accessing partition.
 *
 * Managed regions run any replacement policy of the array family (the
 * VPOL_* codes below), mirroring VantagePartitionedCache built with the
 * corresponding named_policy_factory:
 *
 *   recency family (LRU/LIP/BIP/DIP)  the region list *is* the recency
 *                                     order; only the insertion end (and
 *                                     DIP's shared-PSEL duel) differ
 *   RRIP family (SRRIP/BRRIP/DRRIP/   per-node RRPV (node_aux) + bucket-
 *   TA-DRRIP)                         entrant stamps (node_stamp); the
 *                                     victim is the oldest stamp at the
 *                                     max RRPV and survivors age, exactly
 *                                     _RRIPBase.evict_one: found through
 *                                     the RRPV bucket index when the call
 *                                     replays at least as many accesses
 *                                     as the managed capacities sum to,
 *                                     else by a scan of the region
 *                                     (vantage_realloc always scans)
 *   PDP                               per-node protection deadline
 *                                     (node_aux) + per-region clock/dp/
 *                                     reuse-sampler state, exactly
 *                                     PDPPolicy (evict_one falls back to
 *                                     the oldest line when every line is
 *                                     protected, so Vantage never bypasses)
 *   Random                            victims drawn from the shared
 *                                     splitmix64 stream: the
 *                                     (r % occupancy)-th line in
 *                                     insertion order
 *
 * Every policy is bit-identical to the object model: the whole cache draws
 * from one splitmix64 stream, DIP/DRRIP duel over one PSEL with a leader
 * role per partition, and TA-DRRIP treats each partition as a thread with
 * its own PSEL.
 */

/* Managed-region policy codes (must match repro.cache.partition.array). */
#define VPOL_LRU 0
#define VPOL_LIP 1
#define VPOL_BIP 2
#define VPOL_DIP 3
#define VPOL_SRRIP 4
#define VPOL_BRRIP 5
#define VPOL_DRRIP 6
#define VPOL_TADRRIP 7
#define VPOL_PDP 8
#define VPOL_RANDOM 9

/* All Vantage replay state + policy parameters, bundled so the policy
 * helpers stay readable.  Built on entry by vantage_run/vantage_realloc. */
typedef struct {
    int64_t num_parts, unm, unm_cap;
    int64_t pol, max_rrpv;
    double epsilon;
    int64_t *counter;          /* shared bucket-entrant stamp (RRIP family) */
    uint64_t *rng;
    const int64_t *roles;      /* per-region duel roles (DIP/DRRIP) */
    int64_t *psel;             /* psel[0] shared (DIP/DRRIP) or per region
                                * (TA-DRRIP) */
    int64_t psel_max, leader_levels;
    int64_t *node_aux;         /* RRPV (RRIP family) / deadline (PDP) */
    int64_t *node_stamp;       /* bucket-entrant order (RRIP family) */
    int64_t *pdp_clock, *pdp_dp, *pdp_sample, *pdp_hist;
    int64_t hist_stride;
    const int64_t *pdp_maxdp, *pdp_interval, *pdp_clear;
    int64_t *ls_tags, *ls_clocks, *ls_count;
    int64_t ls_size;
    int64_t *ht_tag, *ht_reg, *ht_node;
    uint64_t tmask;
    int64_t *node_tag, *node_prev, *node_next;
    int64_t *head, *tail, *occ, *free_io;
    rrpv_index *ix;            /* RRIP family: the managed regions' bucket
                                * index, or NULL to scan */
} vt_ctx;

static inline uint64_t vt_home(int64_t tag, int64_t region)
{
    return mix64((uint64_t)tag ^ ((uint64_t)(region + 1) * GOLDEN));
}

static inline int64_t vt_lookup(const int64_t *ht_tag, const int64_t *ht_reg,
                                const int64_t *ht_node, uint64_t tmask,
                                int64_t tag, int64_t region)
{
    uint64_t slot = vt_home(tag, region) & tmask;
    while (ht_node[slot] >= 0) {
        if (ht_tag[slot] == tag && ht_reg[slot] == region)
            return (int64_t)slot;
        slot = (slot + 1) & tmask;
    }
    return -1;
}

static inline void vt_insert(int64_t *ht_tag, int64_t *ht_reg,
                             int64_t *ht_node, uint64_t tmask,
                             int64_t tag, int64_t region, int64_t node)
{
    uint64_t slot = vt_home(tag, region) & tmask;
    while (ht_node[slot] >= 0)
        slot = (slot + 1) & tmask;
    ht_tag[slot] = tag;
    ht_reg[slot] = region;
    ht_node[slot] = node;
}

/* Backward-shift deletion: empty the slot, then walk the probe chain
 * moving entries whose home position allows them to fill the hole. */
static inline void vt_delete(int64_t *ht_tag, int64_t *ht_reg,
                             int64_t *ht_node, uint64_t tmask, uint64_t slot)
{
    ht_node[slot] = -1;
    uint64_t hole = slot;
    uint64_t i = (slot + 1) & tmask;
    while (ht_node[i] >= 0) {
        uint64_t home = vt_home(ht_tag[i], ht_reg[i]) & tmask;
        if (((i - home) & tmask) >= ((i - hole) & tmask)) {
            ht_tag[hole] = ht_tag[i];
            ht_reg[hole] = ht_reg[i];
            ht_node[hole] = ht_node[i];
            ht_node[i] = -1;
            hole = i;
        }
        i = (i + 1) & tmask;
    }
}

static inline void vt_list_remove(int64_t node, int64_t region,
                                  int64_t *node_prev, int64_t *node_next,
                                  int64_t *head, int64_t *tail, int64_t *occ)
{
    int64_t prev = node_prev[node], next = node_next[node];
    if (prev >= 0) node_next[prev] = next; else head[region] = next;
    if (next >= 0) node_prev[next] = prev; else tail[region] = prev;
    occ[region]--;
}

static inline void vt_list_push(int64_t node, int64_t region,
                                int64_t *node_prev, int64_t *node_next,
                                int64_t *head, int64_t *tail, int64_t *occ)
{
    int64_t last = tail[region];
    node_prev[node] = last;
    node_next[node] = -1;
    if (last >= 0) node_next[last] = node; else head[region] = node;
    tail[region] = node;
    occ[region]++;
}

/* Push at the head (the LRU / oldest end): LIP-style insertion, i.e.
 * OrderedDict.move_to_end(tag, last=False) right after the insert. */
static inline void vt_list_push_front(int64_t node, int64_t region,
                                      int64_t *node_prev, int64_t *node_next,
                                      int64_t *head, int64_t *tail,
                                      int64_t *occ)
{
    int64_t first = head[region];
    node_next[node] = first;
    node_prev[node] = -1;
    if (first >= 0) node_prev[first] = node; else tail[region] = node;
    head[region] = node;
    occ[region]++;
}

/* PDPPolicy._record_reuse for region p: advance the region clock, sample
 * the bounded reuse distance, and periodically recompute dp. */
static inline void vt_pdp_record(vt_ctx *c, int64_t p, int64_t a)
{
    int64_t clk = ++c->pdp_clock[p];
    int64_t *lst = c->ls_tags + p * c->ls_size;
    int64_t *lsc = c->ls_clocks + p * c->ls_size;
    uint64_t lmask = (uint64_t)(c->ls_size - 1);
    int64_t maxdp = c->pdp_maxdp[p];
    int64_t slot = ls_slot(lst, lmask, a);
    if (lst[slot] == a) {
        int64_t d = clk - lsc[slot];
        if (d <= maxdp)
            c->pdp_hist[p * c->hist_stride + d]++;
    } else {
        lst[slot] = a;
        c->ls_count[p]++;
    }
    lsc[slot] = clk;
    c->pdp_sample[p]++;
    if (c->pdp_sample[p] % c->pdp_interval[p] == 0)
        pdp_recompute(c->pdp_hist + p * c->hist_stride, maxdp, c->pdp_dp + p,
                      c->pdp_sample[p], lst, c->ls_size, c->ls_count + p,
                      c->pdp_clear[p]);
}

/* region.evict_one(): select (and for RRIP, age) but do not yet unlink the
 * victim of managed region p.  Returns the victim node, or -1 when the
 * region is empty. */
static int64_t vt_evict_one(vt_ctx *c, int64_t p)
{
    if (c->occ[p] <= 0)
        return -1;
    switch (c->pol) {
    case VPOL_SRRIP:
    case VPOL_BRRIP:
    case VPOL_DRRIP:
    case VPOL_TADRRIP: {
        /* Oldest bucket entrant at the highest RRPV, then age everyone —
         * _RRIPBase._age_until_victim_available + evict. */
        if (c->ix)
            return ri_evict(c->ix, p);
        int64_t maxp = -1;
        for (int64_t m = c->head[p]; m >= 0; m = c->node_next[m])
            if (c->node_aux[m] > maxp) maxp = c->node_aux[m];
        int64_t victim = -1, best = I64_MAX;
        for (int64_t m = c->head[p]; m >= 0; m = c->node_next[m])
            if (c->node_aux[m] == maxp && c->node_stamp[m] < best) {
                best = c->node_stamp[m];
                victim = m;
            }
        int64_t d = c->max_rrpv - maxp;
        if (d > 0)
            for (int64_t m = c->head[p]; m >= 0; m = c->node_next[m])
                c->node_aux[m] += d;
        return victim;
    }
    case VPOL_PDP: {
        /* Oldest unprotected line, else the oldest line (PDPPolicy.evict_one
         * — no clock advance here). */
        int64_t clk = c->pdp_clock[p];
        for (int64_t m = c->head[p]; m >= 0; m = c->node_next[m])
            if (c->node_aux[m] <= clk)
                return m;
        return c->head[p];
    }
    case VPOL_RANDOM: {
        uint64_t k = splitmix64_next(c->rng) % (uint64_t)c->occ[p];
        int64_t m = c->head[p];
        while (k--)
            m = c->node_next[m];
        return m;
    }
    default:
        /* Recency family: the list head is the LRU line. */
        return c->head[p];
    }
}

/* region.access(tag) on a resident line. */
static inline void vt_policy_hit(vt_ctx *c, int64_t p, int64_t node,
                                 int64_t a)
{
    switch (c->pol) {
    case VPOL_SRRIP:
    case VPOL_BRRIP:
    case VPOL_DRRIP:
    case VPOL_TADRRIP:
        /* Promote to bucket 0; the region list stays in membership order
         * (victims are ordered by (RRPV, stamp), never by list position). */
        if (c->ix) ri_promote(c->ix, p, node); else c->node_aux[node] = 0;
        c->node_stamp[node] = ++c->counter[0];
        break;
    case VPOL_PDP:
        vt_pdp_record(c, p, a);
        c->node_aux[node] = c->pdp_clock[p] + c->pdp_dp[p];
        vt_list_remove(node, p, c->node_prev, c->node_next, c->head, c->tail,
                       c->occ);
        vt_list_push(node, p, c->node_prev, c->node_next, c->head, c->tail,
                     c->occ);
        break;
    case VPOL_RANDOM:
        break;  /* RandomPolicy keeps no recency state */
    default:
        /* Recency family: move to MRU. */
        vt_list_remove(node, p, c->node_prev, c->node_next, c->head, c->tail,
                       c->occ);
        vt_list_push(node, p, c->node_prev, c->node_next, c->head, c->tail,
                     c->occ);
        break;
    }
}

/* region.access(tag) insertion of a fresh node (the region has room):
 * policy metadata, duel bookkeeping and the insertion position. */
static void vt_policy_insert(vt_ctx *c, int64_t p, int64_t node, int64_t a)
{
    switch (c->pol) {
    case VPOL_LIP:
        vt_list_push_front(node, p, c->node_prev, c->node_next, c->head,
                           c->tail, c->occ);
        return;
    case VPOL_BIP:
        if (uniform01(c->rng) >= c->epsilon)
            vt_list_push_front(node, p, c->node_prev, c->node_next, c->head,
                               c->tail, c->occ);
        else
            vt_list_push(node, p, c->node_prev, c->node_next, c->head,
                         c->tail, c->occ);
        return;
    case VPOL_DIP: {
        int64_t role = c->roles[p];
        psel_update(role, c->psel, c->psel_max);
        int bip = (role == ROLE_LEADER_BRRIP) ||
                  (role == ROLE_FOLLOWER && c->psel[0] > c->psel_max / 2);
        if (bip && uniform01(c->rng) >= c->epsilon)
            vt_list_push_front(node, p, c->node_prev, c->node_next, c->head,
                               c->tail, c->occ);
        else
            vt_list_push(node, p, c->node_prev, c->node_next, c->head,
                         c->tail, c->occ);
        return;
    }
    case VPOL_SRRIP:
    case VPOL_BRRIP:
    case VPOL_DRRIP:
    case VPOL_TADRRIP: {
        int64_t ins = c->max_rrpv - 1;
        int bimodal = 0;
        if (c->pol == VPOL_BRRIP) {
            bimodal = 1;
        } else if (c->pol == VPOL_DRRIP) {
            int64_t role = c->roles[p];
            psel_update(role, c->psel, c->psel_max);
            bimodal = (role == ROLE_LEADER_BRRIP) ||
                      (role == ROLE_FOLLOWER &&
                       c->psel[0] > c->psel_max / 2);
        } else if (c->pol == VPOL_TADRRIP) {
            int64_t role = address_role(a, c->leader_levels);
            psel_update(role, c->psel + p, c->psel_max);
            bimodal = (role == ROLE_LEADER_BRRIP) ||
                      (role == ROLE_FOLLOWER &&
                       c->psel[p] > c->psel_max / 2);
        }
        if (bimodal && uniform01(c->rng) >= c->epsilon)
            ins = c->max_rrpv;
        if (c->ix) ri_push(c->ix, p, node, ins); else c->node_aux[node] = ins;
        c->node_stamp[node] = ++c->counter[0];
        vt_list_push(node, p, c->node_prev, c->node_next, c->head, c->tail,
                     c->occ);
        return;
    }
    case VPOL_PDP:
        vt_pdp_record(c, p, a);
        c->node_aux[node] = c->pdp_clock[p] + c->pdp_dp[p];
        vt_list_push(node, p, c->node_prev, c->node_next, c->head, c->tail,
                     c->occ);
        return;
    default:
        /* LRU / Random: MRU (insertion-order) end. */
        vt_list_push(node, p, c->node_prev, c->node_next, c->head, c->tail,
                     c->occ);
        return;
    }
}

/* Move a line demoted from (or bypassing) a managed region into the
 * unmanaged region, evicting its oldest entries while over capacity —
 * VantagePartitionedCache._demote.  Returns 0, or -2 on a corrupt free
 * list (defensive; cannot happen when the pool holds capacity + 1 nodes). */
static inline int64_t vt_demote(vt_ctx *c, int64_t tag)
{
    if (c->unm_cap == 0)
        return 0;
    int64_t unm = c->unm;
    int64_t slot = vt_lookup(c->ht_tag, c->ht_reg, c->ht_node, c->tmask,
                             tag, unm);
    if (slot >= 0) {
        int64_t node = c->ht_node[slot];
        vt_list_remove(node, unm, c->node_prev, c->node_next, c->head,
                       c->tail, c->occ);
        vt_list_push(node, unm, c->node_prev, c->node_next, c->head, c->tail,
                     c->occ);
    } else {
        int64_t node = c->free_io[0];
        if (node < 0)
            return -2;
        c->free_io[0] = c->node_next[node];
        c->node_tag[node] = tag;
        vt_list_push(node, unm, c->node_prev, c->node_next, c->head, c->tail,
                     c->occ);
        vt_insert(c->ht_tag, c->ht_reg, c->ht_node, c->tmask, tag, unm, node);
    }
    while (c->occ[unm] > c->unm_cap) {
        int64_t victim = c->head[unm];
        int64_t vslot = vt_lookup(c->ht_tag, c->ht_reg, c->ht_node, c->tmask,
                                  c->node_tag[victim], unm);
        vt_list_remove(victim, unm, c->node_prev, c->node_next, c->head,
                       c->tail, c->occ);
        vt_delete(c->ht_tag, c->ht_reg, c->ht_node, c->tmask,
                  (uint64_t)vslot);
        c->node_next[victim] = c->free_io[0];
        c->free_io[0] = victim;
    }
    return 0;
}

/* Unlink region p's chosen victim, demote it, and free its node. */
static inline int64_t vt_evict_and_demote(vt_ctx *c, int64_t p)
{
    int64_t victim = vt_evict_one(c, p);
    if (victim < 0)
        return 0;
    int64_t vtag = c->node_tag[victim];
    int64_t vslot = vt_lookup(c->ht_tag, c->ht_reg, c->ht_node, c->tmask,
                              vtag, p);
    vt_list_remove(victim, p, c->node_prev, c->node_next, c->head, c->tail,
                   c->occ);
    vt_delete(c->ht_tag, c->ht_reg, c->ht_node, c->tmask, (uint64_t)vslot);
    c->node_next[victim] = c->free_io[0];
    c->free_io[0] = victim;
    return vt_demote(c, vtag);
}

/* Insert into managed partition p, demoting that partition's policy victim
 * (or the line itself when the partition has no budget) —
 * VantagePartitionedCache._insert_managed. */
static inline int64_t vt_insert_managed(vt_ctx *c, int64_t a, int64_t p,
                                        int64_t cap)
{
    if (cap == 0)
        return vt_demote(c, a);
    if (c->occ[p] >= cap) {
        int64_t rc = vt_evict_and_demote(c, p);
        if (rc < 0)
            return rc;
    }
    int64_t node = c->free_io[0];
    if (node < 0)
        return -2;
    c->free_io[0] = c->node_next[node];
    c->node_tag[node] = a;
    vt_insert(c->ht_tag, c->ht_reg, c->ht_node, c->tmask, a, p, node);
    vt_policy_insert(c, p, node, a);
    return 0;
}

static inline vt_ctx vt_make_ctx(int64_t num_parts, int64_t unm_cap,
                                 int64_t pol, int64_t max_rrpv,
                                 double epsilon, int64_t *counter,
                                 uint64_t *rng_state, const int64_t *roles,
                                 int64_t *psel, int64_t psel_max,
                                 int64_t leader_levels, int64_t *node_aux,
                                 int64_t *node_stamp, int64_t *pdp_clock,
                                 int64_t *pdp_dp, int64_t *pdp_sample,
                                 int64_t *pdp_hist, int64_t hist_stride,
                                 const int64_t *pdp_maxdp,
                                 const int64_t *pdp_interval,
                                 const int64_t *pdp_clear, int64_t *ls_tags,
                                 int64_t *ls_clocks, int64_t *ls_count,
                                 int64_t ls_size, int64_t *ht_tag,
                                 int64_t *ht_reg, int64_t *ht_node,
                                 int64_t tsize, int64_t *node_tag,
                                 int64_t *node_prev, int64_t *node_next,
                                 int64_t *head, int64_t *tail, int64_t *occ,
                                 int64_t *free_io)
{
    vt_ctx c;
    c.num_parts = num_parts; c.unm = num_parts; c.unm_cap = unm_cap;
    c.pol = pol; c.max_rrpv = max_rrpv; c.epsilon = epsilon;
    c.counter = counter; c.rng = rng_state; c.roles = roles; c.psel = psel;
    c.psel_max = psel_max; c.leader_levels = leader_levels;
    c.node_aux = node_aux; c.node_stamp = node_stamp;
    c.pdp_clock = pdp_clock; c.pdp_dp = pdp_dp; c.pdp_sample = pdp_sample;
    c.pdp_hist = pdp_hist; c.hist_stride = hist_stride;
    c.pdp_maxdp = pdp_maxdp; c.pdp_interval = pdp_interval;
    c.pdp_clear = pdp_clear;
    c.ls_tags = ls_tags; c.ls_clocks = ls_clocks; c.ls_count = ls_count;
    c.ls_size = ls_size;
    c.ht_tag = ht_tag; c.ht_reg = ht_reg; c.ht_node = ht_node;
    c.tmask = (uint64_t)(tsize - 1);
    c.node_tag = node_tag; c.node_prev = node_prev; c.node_next = node_next;
    c.head = head; c.tail = tail; c.occ = occ; c.free_io = free_io;
    c.ix = NULL;
    return c;
}

/* Open the RRPV bucket index over every managed region of an RRIP-family
 * call that replays at least as many accesses as those regions hold lines
 * (their capacities' sum).  Slots are pool nodes: ArrayVantageCache sizes
 * the hash table at two slots or more per node, so tsize / 2 bounds the
 * node indices.  Returns 0 (index open, or not worth it), or -1 when
 * memory could not be allocated. */
static int vt_index_open(vt_ctx *c, rrpv_index *ix, int64_t n,
                         const int64_t *caps, int64_t tsize)
{
    if (c->pol != VPOL_SRRIP && c->pol != VPOL_BRRIP
        && c->pol != VPOL_DRRIP && c->pol != VPOL_TADRRIP)
        return 0;
    int64_t lines = 0, widest = 0;
    for (int64_t p = 0; p < c->num_parts; p++) {
        lines += caps[p];
        if (c->occ[p] > widest) widest = c->occ[p];
    }
    if (n < lines)
        return 0;
    if (ri_alloc(ix, tsize / 2, c->num_parts, c->max_rrpv, c->node_aux,
                 widest) < 0)
        return -1;
    for (int64_t p = 0; p < c->num_parts; p++) {
        int64_t k = 0;
        for (int64_t m = c->head[p]; m >= 0; m = c->node_next[m]) {
            ix->sort[k].stamp = c->node_stamp[m];
            ix->sort[k++].slot = m;
        }
        ri_build(ix, p, k);
    }
    c->ix = ix;
    return 0;
}

/* Write the true RRPVs of every managed line back and free the index. */
static void vt_index_close(vt_ctx *c)
{
    if (!c->ix)
        return;
    for (int64_t p = 0; p < c->num_parts; p++)
        for (int64_t m = c->head[p]; m >= 0; m = c->node_next[m])
            c->node_aux[m] += c->ix->off[p];
    ri_free(c->ix);
    c->ix = NULL;
}

/* Replay a trace through a Vantage cache whose managed regions run the
 * `pol` replacement policy.  Each access's partition is parts[i], or, when
 * parts is NULL, the shadow partition `st` steers it to (a Talus logical
 * pair's replay).  Adds per-partition access and miss counts into acc_out
 * and miss_out (caller-zeroed) and returns the total misses, -1 on an
 * out-of-range partition id, -2 on free-list exhaustion (both defensive;
 * callers validate / size the pool), or -3 when the RRPV bucket index's
 * scratch memory could not be allocated (the cache untouched).  Policy
 * side state not used by `pol` may be NULL. */
int64_t vantage_run(const int64_t *addrs, const int64_t *parts,
                    const steering *st, int64_t n,
                    int64_t num_parts, const int64_t *caps, int64_t unm_cap,
                    int64_t pol, int64_t max_rrpv, double epsilon,
                    int64_t *counter, uint64_t *rng_state,
                    const int64_t *roles, int64_t *psel, int64_t psel_max,
                    int64_t leader_levels, int64_t *node_aux,
                    int64_t *node_stamp, int64_t *pdp_clock, int64_t *pdp_dp,
                    int64_t *pdp_sample, int64_t *pdp_hist,
                    int64_t hist_stride, const int64_t *pdp_maxdp,
                    const int64_t *pdp_interval, const int64_t *pdp_clear,
                    int64_t *ls_tags, int64_t *ls_clocks, int64_t *ls_count,
                    int64_t ls_size, int64_t *ht_tag, int64_t *ht_reg,
                    int64_t *ht_node, int64_t tsize, int64_t *node_tag,
                    int64_t *node_prev, int64_t *node_next, int64_t *head,
                    int64_t *tail, int64_t *occ, int64_t *free_io,
                    int64_t *acc_out, int64_t *miss_out)
{
    vt_ctx c = vt_make_ctx(num_parts, unm_cap, pol, max_rrpv, epsilon,
                           counter, rng_state, roles, psel, psel_max,
                           leader_levels, node_aux, node_stamp, pdp_clock,
                           pdp_dp, pdp_sample, pdp_hist, hist_stride,
                           pdp_maxdp, pdp_interval, pdp_clear, ls_tags,
                           ls_clocks, ls_count, ls_size, ht_tag, ht_reg,
                           ht_node, tsize, node_tag, node_prev, node_next,
                           head, tail, occ, free_io);
    rrpv_index ix;
    if (vt_index_open(&c, &ix, n, caps, tsize) < 0)
        return -3;
    int64_t total_misses = 0, rc = 0;

    for (int64_t i = 0; i < n && rc >= 0; i++) {
        int64_t a = addrs[i];
        int64_t p = parts ? parts[i] : steer(st, a);
        if (p < 0 || p >= num_parts) {
            rc = -1;
            break;
        }
        acc_out[p]++;
        int64_t slot = vt_lookup(c.ht_tag, c.ht_reg, c.ht_node, c.tmask,
                                 a, p);
        if (slot >= 0) {
            /* Managed hit. */
            vt_policy_hit(&c, p, c.ht_node[slot], a);
            continue;
        }
        int64_t uslot = vt_lookup(c.ht_tag, c.ht_reg, c.ht_node, c.tmask,
                                  a, c.unm);
        if (uslot >= 0) {
            /* Unmanaged hit: promote back into the partition. */
            int64_t node = c.ht_node[uslot];
            vt_list_remove(node, c.unm, c.node_prev, c.node_next, c.head,
                           c.tail, c.occ);
            vt_delete(c.ht_tag, c.ht_reg, c.ht_node, c.tmask,
                      (uint64_t)uslot);
            c.node_next[node] = c.free_io[0];
            c.free_io[0] = node;
            rc = vt_insert_managed(&c, a, p, caps[p]);
            continue;
        }
        miss_out[p]++;
        total_misses++;
        rc = vt_insert_managed(&c, a, p, caps[p]);
    }
    vt_index_close(&c);
    return (rc < 0) ? rc : total_misses;
}

/* Warm reallocation: shrink each managed region to its new capacity,
 * demoting the policy's evicted victims (in eviction order) into the
 * unmanaged region — VantagePartitionedCache.set_allocations.  The caller
 * records the new capacities afterwards.  Returns 0 or -2 (see
 * vantage_run). */
int64_t vantage_realloc(int64_t num_parts, const int64_t *new_caps,
                        int64_t unm_cap, int64_t pol, int64_t max_rrpv,
                        uint64_t *rng_state, int64_t *node_aux,
                        int64_t *node_stamp, int64_t *pdp_clock,
                        int64_t *pdp_dp, int64_t *ht_tag, int64_t *ht_reg,
                        int64_t *ht_node, int64_t tsize, int64_t *node_tag,
                        int64_t *node_prev, int64_t *node_next, int64_t *head,
                        int64_t *tail, int64_t *occ, int64_t *free_io)
{
    vt_ctx c = vt_make_ctx(num_parts, unm_cap, pol, max_rrpv, 0.0, NULL,
                           rng_state, NULL, NULL, 0, 0, node_aux, node_stamp,
                           pdp_clock, pdp_dp, NULL, NULL, 0, NULL, NULL,
                           NULL, NULL, NULL, NULL, 0, ht_tag, ht_reg,
                           ht_node, tsize, node_tag, node_prev, node_next,
                           head, tail, occ, free_io);
    for (int64_t p = 0; p < num_parts; p++) {
        while (c.occ[p] > new_caps[p]) {
            int64_t rc = vt_evict_and_demote(&c, p);
            if (rc < 0)
                return rc;
        }
    }
    return 0;
}

/* --------------------------------------------------------- stack distance --- */

/* The rank structure of both Mattson passes: which positions of [0, cap)
 * hold a live marker, as a bitmap of W = ceil(cap / 64) words plus a
 * Fenwick tree over the words' popcounts, in one int64 array of 2W + 1
 * entries (rk[0, W) the bits, rk[W + 1, 2W] the word tree; rk[W] is
 * unused).  A rank is a word-tree prefix plus one popcount, and marking
 * or clearing a position flips one bit and walks log2(W) levels. */
static inline int64_t rank_words(int64_t cap)
{
    return (cap + 63) >> 6;
}

static inline void rank_flip(int64_t *rk, int64_t words, int64_t p,
                             int64_t delta)
{
    ((uint64_t *)rk)[p >> 6] ^= 1ULL << (p & 63);
    for (int64_t i = (p >> 6) + 1; i <= words; i += i & (-i))
        rk[words + i] += delta;
}

/* Live markers at positions [0, p]. */
static inline int64_t rank_upto(const int64_t *rk, int64_t words, int64_t p)
{
    int64_t total = 0;
    for (int64_t i = p >> 6; i > 0; i -= i & (-i))
        total += rk[words + i];
    uint64_t bits = ((const uint64_t *)rk)[p >> 6];
    return total + __builtin_popcountll(bits & ((2ULL << (p & 63)) - 1));
}

/* Mark exactly the positions [0, live), in closed form. */
static void rank_fill(int64_t *rk, int64_t words, int64_t live)
{
    uint64_t *bits = (uint64_t *)rk;
    for (int64_t w = 0; w < words; w++) {
        int64_t k = live - (w << 6);
        bits[w] = k >= 64 ? ~0ULL : k > 0 ? (1ULL << k) - 1 : 0;
    }
    rk[words] = 0;
    for (int64_t i = 1; i <= words; i++) {
        int64_t lo = (i - (i & (-i))) << 6, hi = i << 6;
        rk[words + i] = (hi < live ? hi : live) - (lo < live ? lo : live);
    }
}

/* Replay `n` addresses through a fully-associative LRU region of
 * `capacity` lines (an idealized partition).  resident[0, occ_io[0]) holds
 * the region's lines, LRU -> MRU; resident has room for `capacity` lines.
 *
 * A Mattson pass over the resident lines followed by the new accesses
 * counts an access as a hit iff its stack distance is below `capacity`
 * (the LRU stack property; the resident lines are distinct, so none of
 * them hits).  The last `capacity` distinct lines of that replay are then
 * written back, LRU -> MRU.  Returns the miss count, or -1 when scratch
 * memory could not be allocated, leaving the region untouched.  Every
 * int64 address, -1 included, is a valid line. */
int64_t ideal_lru_run(const int64_t *addrs, int64_t n, int64_t capacity,
                      int64_t *resident, int64_t *occ_io)
{
    if (n <= 0)
        return 0;
    if (capacity <= 0)
        return n;
    int64_t occ = occ_io[0];
    int64_t m = occ + n;
    int64_t words = rank_words(m);
    int64_t room = capacity < m ? capacity : m;
    uint64_t tsize = 64;
    while (tsize < (uint64_t)m * 2)
        tsize <<= 1;
    int64_t *ttags = malloc(tsize * sizeof(int64_t));
    int64_t *tvals = malloc(tsize * sizeof(int64_t));
    int64_t *rk = calloc((size_t)(2 * words + 1), sizeof(int64_t));
    int64_t *kept_lines = malloc((size_t)room * sizeof(int64_t));
    if (!ttags || !tvals || !rk || !kept_lines) {
        free(ttags); free(tvals); free(rk); free(kept_lines);
        return -1;
    }
    memset(tvals, 0xFF, tsize * sizeof(int64_t));
    uint64_t tmask = tsize - 1;
    int64_t hits = 0, distinct = 0;

    for (int64_t i = 0; i < m; i++) {
        int64_t a = (i < occ) ? resident[i] : addrs[i - occ];
        uint64_t slot = mix64((uint64_t)a) & tmask;
        while (tvals[slot] >= 0 && ttags[slot] != a)
            slot = (slot + 1) & tmask;
        if (tvals[slot] >= 0) {
            /* One live marker per distinct line, all before i. */
            int64_t last = tvals[slot];
            if (distinct - rank_upto(rk, words, last) < capacity)
                hits++;
            rank_flip(rk, words, last, -1);
        } else {
            ttags[slot] = a;
            distinct++;
        }
        rank_flip(rk, words, i, 1);
        tvals[slot] = i;
    }
    /* Walk back from the MRU end: position j holds a resident line iff it
     * is that line's last occurrence.  The kept lines collect at the top
     * of kept_lines. */
    int64_t kept = 0;
    for (int64_t j = m - 1; j >= 0 && kept < room; j--) {
        int64_t a = (j < occ) ? resident[j] : addrs[j - occ];
        uint64_t slot = mix64((uint64_t)a) & tmask;
        while (tvals[slot] >= 0 && ttags[slot] != a)
            slot = (slot + 1) & tmask;
        if (tvals[slot] == j)
            kept_lines[room - 1 - kept++] = a;
    }
    memcpy(resident, kept_lines + room - kept,
           (size_t)kept * sizeof(int64_t));
    occ_io[0] = kept;
    free(ttags); free(tvals); free(rk); free(kept_lines);
    return n - hits;
}

/* Relabel a fold's live markers 0..live-1 in position order (the relative
 * order of the markers is all a distance reads).  The state lives in
 * old_tags/old_vals and in old_tree (old_cap positions); when tab_vals is
 * another (larger) table, every live line is re-probed into it, else it
 * is relabelled in place, and `tree` (cap >= old_cap positions) may be
 * old_tree itself.  A live position's rank is read from the old bitmap:
 * the live markers of the words before its own (an exclusive running
 * count, kept in the new word tree's storage, which the old bits do not
 * share) plus one popcount.  The new tree then marks positions 0..live-1
 * in closed form.  No sort and no allocation: O(words + old_tsize). */
static void stack_relabel(int64_t *tab_tags, int64_t *tab_vals,
                          int64_t tsize, const int64_t *old_tags,
                          const int64_t *old_vals, int64_t old_tsize,
                          int64_t *tree, int64_t cap,
                          const int64_t *old_tree, int64_t old_cap,
                          int64_t live)
{
    int64_t words = rank_words(cap), old_words = rank_words(old_cap);
    const uint64_t *bits = (const uint64_t *)old_tree;
    int64_t *before = tree + words + 1;
    int64_t count = 0;
    for (int64_t w = 0; w < old_words; w++) {
        before[w] = count;
        count += __builtin_popcountll(bits[w]);
    }
    uint64_t tmask = (uint64_t)(tsize - 1);
    for (int64_t s = 0; s < old_tsize; s++) {
        int64_t p = old_vals[s];
        if (p < 0)
            continue;
        int64_t rank = before[p >> 6]
            + __builtin_popcountll(bits[p >> 6] & ((1ULL << (p & 63)) - 1));
        if (tab_vals == old_vals) {
            tab_vals[s] = rank;
            continue;
        }
        uint64_t slot = mix64((uint64_t)old_tags[s]) & tmask;
        while (tab_vals[slot] >= 0)
            slot = (slot + 1) & tmask;
        tab_tags[slot] = old_tags[s];
        tab_vals[slot] = rank;
    }
    rank_fill(tree, words, live);
}

/* Threshold of a sampling filter that keeps every access (rate 1.0). */
#define SAMPLE_ALL (1LL << 30)

/* Fold a UMON's raw accesses into a stack-distance monitor's caller-owned
 * state (repro.monitor.stack_distance.IncrementalStackMonitor).  A UMON
 * samples by address hash, as its hardware does beside every access
 * (Sec. VI-C): access a joins the sub-stream iff
 * mix64(a ^ sample_mul) mod 2^30 < threshold, the test of
 * repro.monitor.umon.UMON._sampled; a threshold of SAMPLE_ALL keeps every
 * access without hashing.  The state:
 *
 *   tab_tags/tab_vals  open-addressing last-position table, tsize slots
 *                      (a power of two; tab_vals[slot] < 0 == empty),
 *                      never more than half full
 *   tree               rank structure over positions [0, cap): a bitmap
 *                      of the live markers under a word-level Fenwick
 *                      tree, 2 * ceil(cap / 64) + 1 entries
 *   hist               distance histogram, hist_len = tsize / 2 entries (a
 *                      distance is below the live count, which the
 *                      half-full table bounds)
 *   state              {next position, live markers, cold misses,
 *                       sampled accesses folded}
 *
 * The caller may hand over larger arrays than the state lives in (a new
 * table arrives empty): the state then still sits in old_tags/old_vals
 * (old_tsize slots) and in old_tree (old_cap positions).  When the arrays
 * moved or the chunk's positions would run past the tree, the markers
 * are relabelled first (stack_relabel), so the state moves itself.
 *
 * The fold stops at the first new line that would fill the table past
 * half load, with the state consistent up to it, and returns how many of
 * the n accesses it consumed: the caller doubles the table and folds the
 * rest.  Only a fold that consumed all n then reads: read_out[k] receives
 * the hits at capacity min(read_x[k], live), the sum of hist[0, x), for
 * read_x ascending (the integer abscissae a miss-curve read interpolates
 * between).  Returns -1 without touching any state when the chunk cannot
 * fit (the caller sizes the tree to hold live + n positions, never fewer
 * than old_cap), or -2 when a distance falls outside the histogram, which
 * only a corrupt tree or a short histogram produces.  The histogram equals
 * that of StackDistanceMonitor over the concatenated sampled chunks,
 * however the stream is chunked (tests/test_resumable_runtime.py). */
static int64_t stack_fold(const int64_t *addrs, int64_t n,
                          uint64_t sample_mul, int64_t threshold,
                          int64_t *tab_tags, int64_t *tab_vals,
                          int64_t tsize, const int64_t *old_tags,
                          const int64_t *old_vals, int64_t old_tsize,
                          int64_t *tree, int64_t cap,
                          const int64_t *old_tree, int64_t old_cap,
                          int64_t *hist, int64_t hist_len, int64_t *state,
                          const int64_t *read_x, int64_t read_n,
                          int64_t *read_out)
{
    int64_t pos = state[0], live = state[1], cold = state[2];
    int64_t folded = state[3];
    int move = tab_vals != old_vals || tree != old_tree || pos + n > cap;
    if (n < 0 || 2 * live > tsize || (move ? live : pos) + n > cap
        || old_cap > cap)
        return -1;
    if (move) {
        stack_relabel(tab_tags, tab_vals, tsize, old_tags, old_vals,
                      old_tsize, tree, cap, old_tree, old_cap, live);
        pos = live;
    }
    int64_t words = rank_words(cap);
    uint64_t tmask = (uint64_t)(tsize - 1);
    int sampled = threshold < SAMPLE_ALL;
    int64_t i = 0, rc = 0;
    for (; i < n; i++) {
        int64_t a = addrs[i];
        if (sampled && (int64_t)(mix64((uint64_t)a ^ sample_mul)
                                 & (SAMPLE_ALL - 1)) >= threshold)
            continue;
        uint64_t slot = mix64((uint64_t)a) & tmask;
        while (tab_vals[slot] >= 0 && tab_tags[slot] != a)
            slot = (slot + 1) & tmask;
        if (tab_vals[slot] >= 0) {
            /* The `live` markers all sit before pos. */
            int64_t last = tab_vals[slot];
            int64_t d = live - rank_upto(tree, words, last);
            if (d < 0 || d >= hist_len) {
                rc = -2;    /* never write past hist */
                break;
            }
            hist[d]++;
            rank_flip(tree, words, last, -1);
        } else {
            if (2 * (live + 1) > tsize)
                break;      /* past half load: the caller grows the table */
            tab_tags[slot] = a;
            live++;
            cold++;
        }
        rank_flip(tree, words, pos, 1);
        tab_vals[slot] = pos;
        pos++;
        folded++;
    }
    state[0] = pos;
    state[1] = live;
    state[2] = cold;
    state[3] = folded;
    if (rc < 0)
        return rc;
    if (i == n) {
        int64_t hits = 0, d = 0;
        for (int64_t k = 0; k < read_n; k++) {
            int64_t x = read_x[k] < live ? read_x[k] : live;
            while (d < x)
                hits += hist[d++];
            read_out[k] = hits;
        }
    }
    return i;
}

/* --------------------------------------------------------------------- *
 * Threaded batch dispatcher
 *
 * batch_run_threaded executes N *independent* replay tasks — each one a
 * call into one of the per-config kernels above — across a pool of worker
 * threads.  It is the only way Python enters the replay kernels: a serial
 * replay is a batch of one task at width 1.  A batch_task is just a
 * flattened argument record plus a `kind` selecting which kernel to call,
 * so a task's result is independent of the thread count and of which
 * worker happens to run it.  A group record (a partitioned cache) runs
 * its region records in order on the worker that claimed it.  Tasks
 * never share state arrays — each config owns its tags/stamp/side-state
 * buffers and its slice of the output — so the only cross-thread
 * communication is the atomic work counter below.
 *
 * Threading is optional at compile time: when the compiler rejects
 * -pthread, the Python side retries with -DREPRO_SERIAL_BATCH and the
 * dispatcher degrades to a serial loop over the same tasks (same results,
 * one thread).
 * --------------------------------------------------------------------- */

#ifndef REPRO_SERIAL_BATCH
#include <pthread.h>
#endif

enum {
    BATCH_KIND_LRU = 0,      /* lru_run (LRU, and LIP via `lip`)   */
    BATCH_KIND_RRIP = 1,     /* rrip_run (SRRIP/BRRIP/DRRIP)       */
    BATCH_KIND_DIP = 2,      /* dip_run (BIP/DIP)                  */
    BATCH_KIND_PDP = 3,      /* pdp_run                            */
    BATCH_KIND_RANDOM = 4,   /* random_run                         */
    BATCH_KIND_VANTAGE = 5,  /* vantage_run                        */
    BATCH_KIND_TADRRIP = 6,  /* tadrrip_run (parts = thread ids)   */
    BATCH_KIND_BELADY = 7,   /* belady_run (ht_reg = next-use map) */
    BATCH_KIND_IDEAL_LRU = 8, /* ideal_lru_run (tags = resident)   */
    BATCH_KIND_GROUP = 9,    /* group_run (records below)          */
    BATCH_KIND_STACK = 10,   /* stack_fold (members below)         */
    BATCH_KIND_MISS = 11,    /* a region of no capacity: all miss  */
};

/* A fold record reuses Belady's table and heap members and PDP's
 * last-seen table: ht_tag/ht_reg are its last-position table of tsize
 * slots and ls_tags/ls_clocks the table of ls_size slots its state lives
 * in; heap_key is its rank structure over heap_cap positions and
 * heap_tag the one its state lives in, over old_tree_cap positions; hist
 * is its histogram of hist_len entries and heap_io its {position, live,
 * cold, folded} state.  sample_mul/sample_threshold are the UMON's
 * sampling filter and read_x/read_n/read_out its read.
 *
 * A group record (a way, set or ideal partitioned cache's replay) points
 * `sub` at one region record per lane (num_regions of them), whose addrs
 * and n it fills in; `parts` tags each access with its lane, or, when
 * NULL, the steer_* members steer it (lanes 0 and 1 are the pair's alpha
 * and beta).  A Vantage record takes the same steering, with the pair's
 * partition ids as steer_alpha/steer_beta.  Both count each lane's (or
 * partition's) accesses into acc_out and misses into miss_out. */

/* One replay task.  Every member is 8 bytes, so the layout is identical
 * across platforms and trivially mirrored by a ctypes.Structure (see
 * _native.py: the field order there must match this declaration).  Unused
 * members of a given kind stay NULL/0.  A group record (a partitioned
 * cache's replay: one record per region, each over that region's own
 * sub-trace and state) points `sub` at its `num_regions` records. */
typedef struct batch_task {
    int64_t kind;
    const int64_t *addrs;
    int64_t n;
    const int64_t *parts;
    int64_t *tags;
    int64_t *stamp;
    int64_t *rrpv;
    int64_t *counter;
    uint64_t *rng_state;
    const int64_t *roles;
    int64_t *psel;
    int64_t *expires;
    int64_t *clock;
    int64_t *dp;
    int64_t *sample_count;
    int64_t *hist;
    int64_t *ls_tags;
    int64_t *ls_clocks;
    int64_t *ls_count;
    struct batch_task *sub;
    int64_t *miss_out;
    const int64_t *caps;
    int64_t *ht_tag;
    int64_t *ht_reg;
    int64_t *ht_node;
    int64_t *node_tag;
    int64_t *node_prev;
    int64_t *node_next;
    int64_t *head;
    int64_t *tail;
    int64_t *occ;
    int64_t *free_io;
    int64_t num_sets;
    int64_t ways;
    int64_t max_rrpv;
    int64_t mode;
    int64_t lip;
    int64_t hashed;
    int64_t index_seed;
    int64_t psel_max;
    int64_t leader_levels;
    int64_t max_dp;
    int64_t interval;
    int64_t clear_threshold;
    int64_t tsize;
    int64_t num_regions;
    int64_t unm_cap;
    int64_t *node_aux;
    int64_t *node_stamp;
    const int64_t *vp_maxdp;
    const int64_t *vp_interval;
    const int64_t *vp_clear;
    const int64_t *next_use;
    int64_t *heap_key;
    int64_t *heap_tag;
    int64_t *heap_io;
    int64_t hist_stride;
    int64_t ls_size;
    int64_t heap_cap;
    int64_t capacity;
    int64_t num_streams;
    int64_t old_tree_cap;
    int64_t hist_len;
    const uint64_t *steer_lut;
    int64_t steer_bytes;
    int64_t steer_limit;
    int64_t steer_alpha;
    int64_t steer_beta;
    int64_t *acc_out;
    uint64_t sample_mul;
    int64_t sample_threshold;
    const int64_t *read_x;
    int64_t read_n;
    int64_t *read_out;
    double epsilon;
    int64_t result;
} batch_task;

static void batch_run_one(batch_task *t);

static inline steering task_steering(const batch_task *t)
{
    steering st = {t->steer_lut, t->steer_bytes, t->steer_limit,
                   t->steer_alpha, t->steer_beta};
    return st;
}

/* A group record: tag each access with its lane (parts[i], or the
 * steering), split the trace by lane into scratch, in order, and replay
 * each lane's sub-trace through its region record, which is equivalent to
 * the interleaved replay because the regions share no state.  A lane
 * without accesses does not run.  Writes each lane's access and miss
 * counts into acc_out and miss_out and returns the total misses, the first
 * negative region result, -1 on an out-of-range lane, or -3 when scratch
 * could not be allocated (no region touched).  The scratch belongs to the
 * worker thread running the record. */
static int64_t group_run(batch_task *t)
{
    int64_t lanes = t->num_regions, n = t->n;
    int64_t *acc = t->acc_out, *miss = t->miss_out;
    steering st = task_steering(t);
    for (int64_t r = 0; r < lanes; r++)
        acc[r] = miss[r] = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t r = t->parts ? t->parts[i] : steer(&st, t->addrs[i]);
        if (r < 0 || r >= lanes)
            return -1;
        acc[r]++;
    }
    const int64_t *split = t->addrs;
    int64_t *buf = NULL;
    int whole = 0;
    for (int64_t r = 0; r < lanes; r++)
        whole |= acc[r] == n;
    if (!whole) {
        buf = malloc((size_t)(n + lanes) * sizeof(int64_t));
        if (!buf)
            return -3;
        int64_t *fill = buf + n;
        for (int64_t r = 0, start = 0; r < lanes; start += acc[r++])
            fill[r] = start;
        for (int64_t i = 0; i < n; i++) {
            int64_t a = t->addrs[i];
            int64_t r = t->parts ? t->parts[i] : steer(&st, a);
            buf[fill[r]++] = a;
        }
        split = buf;
    }
    int64_t total = 0;
    for (int64_t r = 0, start = 0; r < lanes; start += acc[r++]) {
        batch_task *sub = &t->sub[r];
        sub->addrs = whole ? t->addrs : split + start;
        sub->n = acc[r];
        sub->result = 0;
        if (!acc[r])
            continue;
        batch_run_one(sub);
        if (sub->result < 0) {
            total = sub->result;
            break;
        }
        miss[r] = sub->result;
        total += sub->result;
    }
    free(buf);
    return total;
}

static void batch_run_one(batch_task *t)
{
    switch (t->kind) {
    case BATCH_KIND_LRU:
        t->result = lru_run(t->addrs, t->n, t->num_sets, t->ways, t->tags,
                            t->stamp, t->counter, t->lip, t->hashed,
                            t->index_seed);
        break;
    case BATCH_KIND_RRIP:
        t->result = rrip_run(t->addrs, t->n, t->num_sets, t->ways,
                             t->max_rrpv, t->tags, t->rrpv, t->stamp,
                             t->counter, t->mode, t->epsilon, t->rng_state,
                             t->roles, t->psel, t->psel_max,
                             t->leader_levels, t->hashed, t->index_seed);
        break;
    case BATCH_KIND_DIP:
        t->result = dip_run(t->addrs, t->n, t->num_sets, t->ways, t->tags,
                            t->stamp, t->counter, t->mode, t->epsilon,
                            t->rng_state, t->roles, t->psel, t->psel_max,
                            t->leader_levels, t->hashed, t->index_seed);
        break;
    case BATCH_KIND_PDP:
        t->result = pdp_run(t->addrs, t->n, t->num_sets, t->ways, t->tags,
                            t->stamp, t->counter, t->expires, t->clock,
                            t->dp, t->sample_count, t->hist, t->max_dp,
                            t->interval, t->clear_threshold, t->ls_tags,
                            t->ls_clocks, t->ls_count, t->tsize, t->hashed,
                            t->index_seed);
        break;
    case BATCH_KIND_RANDOM:
        t->result = random_run(t->addrs, t->n, t->num_sets, t->ways,
                               t->tags, t->rng_state, t->hashed,
                               t->index_seed);
        break;
    case BATCH_KIND_VANTAGE: {
        steering st = task_steering(t);
        t->result = vantage_run(t->addrs, t->parts, &st, t->n,
                                t->num_regions,
                                t->caps, t->unm_cap, t->mode, t->max_rrpv,
                                t->epsilon, t->counter, t->rng_state,
                                t->roles, t->psel, t->psel_max,
                                t->leader_levels, t->node_aux,
                                t->node_stamp, t->clock, t->dp,
                                t->sample_count, t->hist, t->hist_stride,
                                t->vp_maxdp, t->vp_interval, t->vp_clear,
                                t->ls_tags, t->ls_clocks, t->ls_count,
                                t->ls_size, t->ht_tag, t->ht_reg,
                                t->ht_node, t->tsize, t->node_tag,
                                t->node_prev, t->node_next, t->head,
                                t->tail, t->occ, t->free_io, t->acc_out,
                                t->miss_out);
        break;
    }
    case BATCH_KIND_TADRRIP:
        t->result = tadrrip_run(t->addrs, t->parts, t->n, t->num_sets,
                                t->ways, t->max_rrpv, t->tags, t->rrpv,
                                t->stamp, t->counter, t->epsilon,
                                t->rng_state, t->psel, t->num_streams,
                                t->psel_max, t->leader_levels, t->hashed,
                                t->index_seed, t->miss_out);
        break;
    case BATCH_KIND_BELADY:
        t->result = belady_run(t->addrs, t->next_use, t->n, t->capacity,
                               t->ht_tag, t->ht_reg, t->tsize, t->heap_key,
                               t->heap_tag, t->heap_cap, t->heap_io);
        break;
    case BATCH_KIND_IDEAL_LRU:
        t->result = ideal_lru_run(t->addrs, t->n, t->capacity, t->tags,
                                  t->occ);
        break;
    case BATCH_KIND_STACK:
        t->result = stack_fold(t->addrs, t->n, t->sample_mul,
                               t->sample_threshold, t->ht_tag, t->ht_reg,
                               t->tsize, t->ls_tags, t->ls_clocks,
                               t->ls_size, t->heap_key, t->heap_cap,
                               t->heap_tag, t->old_tree_cap, t->hist,
                               t->hist_len, t->heap_io, t->read_x,
                               t->read_n, t->read_out);
        break;
    case BATCH_KIND_GROUP:
        t->result = group_run(t);
        break;
    case BATCH_KIND_MISS:
        t->result = t->n;
        break;
    default:
        t->result = -2;
        break;
    }
}

#ifndef REPRO_SERIAL_BATCH

#define BATCH_MAX_THREADS 128

/* Shared work queue: workers claim task indices with an atomic
 * fetch-and-add, so the assignment of tasks to threads is dynamic
 * (work-stealing) while each task itself runs exactly once. */
typedef struct {
    batch_task *tasks;
    int64_t num_tasks;
    volatile int64_t next;
} batch_queue;

static void *batch_worker(void *arg)
{
    batch_queue *q = (batch_queue *)arg;
    for (;;) {
        int64_t i = __sync_fetch_and_add(&q->next, 1);
        if (i >= q->num_tasks)
            break;
        batch_run_one(&q->tasks[i]);
    }
    return NULL;
}

/* Run `num_tasks` tasks across up to `num_threads` threads (the calling
 * thread doubles as worker zero).  Returns the number of threads actually
 * used (>= 1); each task's outcome lands in its own `result` member. */
int64_t batch_run_threaded(batch_task *tasks, int64_t num_tasks,
                           int64_t num_threads)
{
    if (num_tasks <= 0)
        return 1;
    if (num_threads > num_tasks)
        num_threads = num_tasks;
    if (num_threads > BATCH_MAX_THREADS)
        num_threads = BATCH_MAX_THREADS;
    if (num_threads <= 1) {
        for (int64_t i = 0; i < num_tasks; i++)
            batch_run_one(&tasks[i]);
        return 1;
    }
    batch_queue q;
    q.tasks = tasks;
    q.num_tasks = num_tasks;
    q.next = 0;
    pthread_t workers[BATCH_MAX_THREADS];
    int64_t spawned = 0;
    for (int64_t i = 0; i < num_threads - 1; i++) {
        if (pthread_create(&workers[spawned], NULL, batch_worker, &q) != 0)
            break;  /* degrade: the remaining width is just smaller */
        spawned++;
    }
    batch_worker(&q);
    for (int64_t i = 0; i < spawned; i++)
        pthread_join(workers[i], NULL);
    return spawned + 1;
}

#else  /* REPRO_SERIAL_BATCH: same entry points, serial execution */

int64_t batch_run_threaded(batch_task *tasks, int64_t num_tasks,
                           int64_t num_threads)
{
    (void)num_threads;
    for (int64_t i = 0; i < num_tasks; i++)
        batch_run_one(&tasks[i]);
    return 1;
}

#endif  /* REPRO_SERIAL_BATCH */

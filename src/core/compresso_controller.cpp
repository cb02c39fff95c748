#include "core/compresso_controller.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "check/invariant_auditor.h"
#include "prof/profiler.h"

namespace compresso {

namespace {

/** Base MPA address of the dedicated metadata region (disjoint from
 *  data chunks, which grow up from 0). */
constexpr Addr kMetadataRegionBase = Addr(1) << 40;

} // namespace

/** Checked builds audit the touched page at every state-mutation
 *  boundary; release builds compile the hook away entirely. */
#ifdef COMPRESSO_CHECKED_BUILD
#define CPR_CHECKED_AUDIT(page, site) checkedAudit((page), (site))
#else
#define CPR_CHECKED_AUDIT(page, site) ((void)0)
#endif

CompressoController::CompressoController(const CompressoConfig &cfg)
    : CompressedController({.installed_bytes = cfg.installed_bytes,
                            .mdcache = cfg.mdcache,
                            .metadata_base = kMetadataRegionBase,
                            .md_hit_latency = cfg.mdcache_hit_latency,
                            .stream_buffer_blocks =
                                cfg.stream_buffer ? cfg.stream_buffer_blocks
                                                  : 0,
                            .rewrite_denied_rebuild = false}),
      cfg_(cfg),
      bins_(cfg.line_bins ? cfg.line_bins
                          : (cfg.alignment_friendly ? &compressoBins()
                                                    : &legacyBins())),
      codec_(makeCompressor(cfg.compressor)),
      offsets_(*bins_)
{
    assert(codec_ && "unknown compressor name");
    // Exported from the start, even before the first metadata
    // eviction or stream-buffer hit.
    stats_.stat("md_write_ops");
    stats_.stat("prefetch_hits");
}

void
CompressoController::attachObserver(Observer *obs)
{
    CompressedController::attachObserver(obs);
    h_page_alloc_ = obs ? obs->histogram("mc.page_alloc_bytes") : nullptr;
    h_page_free_ = obs ? obs->histogram("mc.page_free_bytes") : nullptr;
    h_repack_cost_ = obs ? obs->histogram("mc.repack_cost_ops") : nullptr;
}

void
CompressoController::predictorPageOverflow(PageNum page)
{
    bool was = predictor_.armed();
    predictor_.onPageOverflow();
    if (predictor_.armed() != was)
        CPR_OBS_EVENT(obs_, ObsEvent::kPredictorFlip, page, 1);
}

void
CompressoController::predictorPageShrink(PageNum page)
{
    bool was = predictor_.armed();
    predictor_.onPageShrink();
    if (predictor_.armed() != was)
        CPR_OBS_EVENT(obs_, ObsEvent::kPredictorFlip, page, 0);
}

// ---------------------------------------------------------------------
// Metadata helpers
// ---------------------------------------------------------------------

void
CompressoController::onMetaEvict(PageNum page)
{
    if (!cfg_.repack_on_evict || !cur_trace_)
        return;

    auto mit = pages_.find(page);
    if (mit == pages_.end())
        return;
    MetadataEntry &m = mit->second;
    if (!m.valid || m.zero)
        return;
    // Repack only if at least one 512 B chunk is recoverable
    // (Sec. IV-B4).
    if (m.free_space >= kChunkBytes)
        repackPage(page, *cur_trace_);
}

// ---------------------------------------------------------------------
// Layout helpers
// ---------------------------------------------------------------------

uint32_t
CompressoController::packBytes(const MetadataEntry &m) const
{
    uint32_t sum = 0;
    for (uint8_t c : m.line_code)
        sum += bins_->binSize(c);
    return sum;
}

uint32_t
CompressoController::irBase(const MetadataEntry &m) const
{
    // The inflation room starts at the next 64 B boundary past the
    // packed lines so inflated lines are always single-access.
    return uint32_t(roundUp(packBytes(m), kLineBytes));
}

int
CompressoController::inflateSlot(const MetadataEntry &m, LineIdx idx) const
{
    for (unsigned s = 0; s < m.inflate_count; ++s)
        if (m.inflate_line[s] == idx)
            return int(s);
    return -1;
}

// ---------------------------------------------------------------------
// Compression helpers
// ---------------------------------------------------------------------

CompressoController::Encoded
CompressoController::encodeLine(const Line &data) const
{
    Encoded enc;
    enc.zero = isZeroLine(data);
    BitWriter w;
    codec_->compress(data, w);
    enc.bytes = w.bytes();
    enc.bin = bins_->binFor(enc.bytes.size(), enc.zero);
    return enc;
}

void
CompressoController::decodeSlot(const MetadataEntry &m, uint32_t off,
                                unsigned bin, Line &out) const
{
    uint16_t sz = bins_->binSize(bin);
    if (sz == kLineBytes) {
        // Top-bin slots always store the line raw.
        loadBytes(m, off, out.data(), kLineBytes);
        return;
    }
    uint8_t buf[kLineBytes];
    loadBytes(m, off, buf, sz);
    BitReader r(buf, size_t(sz) * 8);
    bool ok = codec_->decompress(r, out);
    assert(ok && "corrupt compressed slot");
    (void)ok;
}

void
CompressoController::gatherPage(const MetadataEntry &m,
                                std::array<Line, kLinesPerPage> &buf) const
{
    for (LineIdx i = 0; i < kLinesPerPage; ++i) {
        int s = inflateSlot(m, i);
        if (!m.compressed) {
            loadBytes(m, i * uint32_t(kLineBytes), buf[i].data(),
                      kLineBytes);
        } else if (s >= 0) {
            loadBytes(m, irBase(m) + uint32_t(s) * uint32_t(kLineBytes),
                      buf[i].data(), kLineBytes);
        } else if (m.line_code[i] != 0) {
            decodeSlot(m, offsets_.offset(m.line_code, i), m.line_code[i],
                       buf[i]);
        } else {
            buf[i].fill(0);
        }
    }
}

// ---------------------------------------------------------------------
// Page lifecycle
// ---------------------------------------------------------------------

void
CompressoController::firstTouch(MetadataEntry &m)
{
    m.valid = true;
    m.zero = true; // OSPA pages start as copy-on-write zero pages
    m.compressed = false;
    m.chunks = 0;
    m.inflate_count = 0;
    m.free_space = 0;
    m.line_code.fill(0);
    ++stats_["pages_touched"];
}

void
CompressoController::materializeZeroPage(MetadataEntry &m, PageShadow &sh)
{
    m.zero = false;
    m.compressed = true;
    m.line_code.fill(0);
    sh.actual_bin.fill(0);
}

void
CompressoController::writeToSlot(PageNum page, MetadataEntry &m,
                                 LineIdx idx, const Encoded &enc,
                                 McTrace &trace)
{
    // Caller guarantees enc fits the slot (enc.bin <= code). A raw
    // slot stores the 64 raw bytes, not the encoding — an
    // incompressible line's encoding can exceed kLineBytes, and sizing
    // the device ops off it would walk past the allocation.
    unsigned code = m.line_code[idx];
    uint32_t off = offsets_.offset(m.line_code, idx);
    size_t len = bins_->binSize(code) == kLineBytes
                     ? kLineBytes
                     : std::max<size_t>(enc.bytes.size(), 1);
    noteSplit(st_split_wb_lines_, page,
              deviceOps(m, off, len, true, false, trace));
    if (bins_->binSize(code) == kLineBytes) {
        // Raw-slot convention: reconstruct raw bytes from the encoding.
        // (The caller passes raw data through handleLineOverflow /
        // writebackLine paths; here we only have enc, so decode it.)
        Line raw;
        BitReader r(enc.bytes.data(), enc.bytes.size() * 8);
        bool ok = codec_->decompress(r, raw);
        assert(ok);
        (void)ok;
        storeBytes(m, off, raw.data(), kLineBytes);
    } else {
        storeBytes(m, off, enc.bytes.data(), enc.bytes.size());
    }
}

void
CompressoController::handleLineOverflow(PageNum page, MetadataEntry &m,
                                        LineIdx idx, const Line &raw,
                                        const Encoded &enc, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcOverflow);
    // Free growth: if nothing is stored after this slot (typical for
    // in-order first writes filling a fresh page), growing the slot
    // moves no data — only the metadata code changes and the page may
    // gain a chunk. This is not the data-movement overflow the
    // predictor hunts for.
    bool tail_empty = m.inflate_count == 0;
    if (tail_empty) {
        for (LineIdx i = idx + 1; i < kLinesPerPage && tail_empty; ++i)
            tail_empty = m.line_code[i] == 0;
    }
    if (tail_empty) {
        ++st_free_slot_growths_;
        uint32_t old_alloc = allocBytes(m);
        m.line_code[idx] = uint8_t(enc.bin);
        uint32_t new_used = uint32_t(roundUp(packBytes(m), kLineBytes));
        uint32_t new_alloc = pageBinBytes(new_used, cfg_.page_sizing);
        if (new_alloc > old_alloc) {
            // Growing to admit a first write is not overflow pressure:
            // nothing moved (chunked) and no data shrank. Keep it out
            // of the predictor's page-overflow signal.
            ++st_free_page_grows_;
            if (cfg_.page_sizing == PageSizing::kVariable4 &&
                old_alloc > 0) {
                // Variable-size chunks: growth relocates the page.
                uint32_t moved = offsets_.offset(m.line_code, idx);
                unsigned blocks =
                    unsigned((moved + kLineBytes - 1) / kLineBytes);
                st_overflow_move_ops_ += 2ull * blocks;
                deviceOps(m, 0, moved, false, false, trace,
                          AttribComp::kOverflowRelayout);
            }
            if (!resizeAlloc(m, unsigned((new_alloc + kChunkBytes - 1) /
                                         kChunkBytes))) {
                m.line_code[idx] = 0; // OOM: drop the write
                return;
            }
            if (cfg_.page_sizing == PageSizing::kVariable4) {
                uint32_t moved = offsets_.offset(m.line_code, idx);
                deviceOps(m, 0, moved, true, false, trace,
                          AttribComp::kOverflowRelayout);
            }
        }
        writeToSlot(page, m, idx, enc, trace);
        return;
    }

    ++st_line_overflows_;
    CPR_OBS_EVENT(obs_, ObsEvent::kLineOverflow, page, idx);
    uint8_t *counter = mdcache_.predictorCounter(page);
    predictor_.onLineOverflow(counter);

    // Sec. III: place the inflated line, uncompressed, in the
    // inflation room, if the current allocation has room for it.
    if (cfg_.inflation_room && m.inflate_count < kMaxInflatedLines) {
        uint32_t base = irBase(m);
        uint32_t need = base + uint32_t(m.inflate_count + 1) *
                                   uint32_t(kLineBytes);
        if (need <= allocBytes(m)) {
            uint32_t off = base +
                uint32_t(m.inflate_count) * uint32_t(kLineBytes);
            m.inflate_line[m.inflate_count++] = uint8_t(idx);
            deviceOps(m, off, kLineBytes, true, false, trace,
                      AttribComp::kOverflowRelayout);
            storeBytes(m, off, raw.data(), kLineBytes);
            ++st_ir_placements_;
            return;
        }
    }

    // The page must grow. Sec. IV-B2: if this page is receiving
    // streaming incompressible data while the system is experiencing
    // page overflows, skip the incremental size bins and speculatively
    // inflate straight to uncompressed 4 KB. Speculative inflations
    // consume whole pages of machine memory, so under pressure the
    // governor bounds how many are in flight per window.
    if (cfg_.overflow_prediction && predictor_.predictInflate(counter)) {
        if (pressure_ == nullptr ||
            pressure_->admitOp(PressureOp::kInflation,
                               2ull * kLinesPerPage)) {
            ++st_predictor_inflations_;
            CPR_OBS_EVENT(obs_, ObsEvent::kInflation, page, 1);
            inflateToUncompressed(page, m, trace);
            if (!m.compressed) {
                shadow(page).predictor_inflated = true;
                uint32_t off = idx * uint32_t(kLineBytes);
                deviceOps(m, off, kLineBytes, true, false, trace,
                          AttribComp::kOverflowRelayout);
                storeBytes(m, off, raw.data(), kLineBytes);
                return;
            }
            // Machine OOM left the page compressed; the identity
            // store above would corrupt the packed layout, so fall
            // through to the bounded growth paths instead.
        } else {
            ++st_inflations_throttled_;
            CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, page,
                          uint32_t(PressureOp::kInflation));
        }
    }

    // Sec. IV-B3: expand the inflation room by one chunk instead of
    // recompressing the page (Fig. 5c, Option 2).
    if (cfg_.inflation_room && cfg_.dynamic_ir_expansion &&
        cfg_.page_sizing == PageSizing::kChunked512 &&
        m.inflate_count < kMaxInflatedLines &&
        m.chunks < kChunksPerPage && resizeAlloc(m, m.chunks + 1)) {
        ++st_dyn_ir_expansions_;
        // The page did outgrow its allocation; the expansion just made
        // the overflow cheap (1 write, no moves).
        ++st_page_overflows_;
        CPR_OBS_EVENT(obs_, ObsEvent::kPageOverflow, page, 1);
        predictorPageOverflow(page);
        uint32_t base = irBase(m);
        uint32_t off =
            base + uint32_t(m.inflate_count) * uint32_t(kLineBytes);
        m.inflate_line[m.inflate_count++] = uint8_t(idx);
        deviceOps(m, off, kLineBytes, true, false, trace,
                  AttribComp::kOverflowRelayout);
        storeBytes(m, off, raw.data(), kLineBytes);
        ++st_ir_placements_;
        return;
    }

    // Fall back to growing the slot in place, moving the lines
    // underneath (Fig. 1c / Fig. 5c Option 1). Repeated in-place
    // growth of the same page is the unbounded-stall shape the
    // watchdog hunts: when the relocation budget is blown, escalate
    // to the degradation ladder's safe state (one terminal inflation
    // to uncompressed 4 KB) so the page stops generating relocations.
    if (pressure_ != nullptr) {
        uint64_t est = 2ull * ((usedBytes(m) + kLineBytes - 1) / kLineBytes);
        if (!pressure_->admitOp(PressureOp::kRelocation, est)) {
            ++st_overflow_escalations_;
            CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, page,
                          uint32_t(PressureOp::kRelocation));
            // Escalation the governor forced: attribute the terminal
            // inflation to pressure, not to ordinary overflow relayout.
            inflateToUncompressed(page, m, trace,
                                  AttribComp::kPressureStall);
            if (!m.compressed) {
                shadow(page).predictor_inflated = true;
                uint32_t off = idx * uint32_t(kLineBytes);
                deviceOps(m, off, kLineBytes, true, false, trace,
                          AttribComp::kPressureStall);
                storeBytes(m, off, raw.data(), kLineBytes);
                return;
            }
            // OOM during escalation: in-place growth below is the
            // only remaining correct path.
        }
    }
    growSlotInPlace(page, m, idx, enc, trace);
}

void
CompressoController::growSlotInPlace(PageNum page, MetadataEntry &m,
                                     LineIdx idx, const Encoded &enc,
                                     McTrace &trace)
{
    ++stats_["slot_growths"];

    // Gather every stored line (functional rebuild).
    std::array<Line, kLinesPerPage> buf;
    gatherPage(m, buf);
    uint32_t old_used = usedBytes(m);

    // New slot codes: keep existing slots (no underflow harvesting on
    // this path — that is the repacking optimization), but inflated
    // lines must get real slots, sized for their current data.
    std::array<uint8_t, kLinesPerPage> codes = m.line_code;
    PageShadow &sh = shadow(page);
    for (unsigned s = 0; s < m.inflate_count; ++s) {
        LineIdx li = m.inflate_line[s];
        codes[li] = std::max(codes[li], sh.actual_bin[li]);
    }
    codes[idx] = uint8_t(enc.bin);

    uint32_t new_pack = 0;
    for (uint8_t c : codes)
        new_pack += bins_->binSize(c);
    uint32_t new_used = uint32_t(roundUp(new_pack, kLineBytes));
    uint32_t new_alloc = pageBinBytes(new_used, cfg_.page_sizing);

    bool page_grew = new_alloc > allocBytes(m);
    if (page_grew) {
        ++st_page_overflows_;
        CPR_OBS_EVENT(obs_, ObsEvent::kPageOverflow, page, 0);
        predictorPageOverflow(page);
    }

    // Movement cost: everything from the grown slot onward is
    // rewritten. A grown page moves entirely under variable-size
    // chunks (relocation); folding an inflated line back into a slot
    // can shift offsets before idx, so that also rewrites from 0.
    uint32_t move_from = offsets_.offset(m.line_code, idx);
    if ((cfg_.page_sizing == PageSizing::kVariable4 && page_grew) ||
        m.inflate_count > 0) {
        move_from = 0;
    }
    uint32_t moved = old_used > move_from ? old_used - move_from : 0;
    unsigned move_blocks = unsigned((moved + kLineBytes - 1) / kLineBytes);
    st_overflow_move_ops_ += 2ull * move_blocks;
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kRelocation, 2ull * move_blocks);
    // Enqueue bandwidth for the move (reads then writes, background).
    if (m.chunks > 0) {
        deviceOps(m, move_from, moved, false, false, trace,
                  AttribComp::kOverflowRelayout);
    }

    if (!resizeAlloc(m, unsigned((new_alloc + kChunkBytes - 1) /
                                 kChunkBytes))) {
        return; // machine OOM: drop the resize, data unchanged
    }

    m.line_code = codes;
    m.inflate_count = 0;

    // Rewrite the moved region in the new layout. Only lines that held
    // data (or the incoming one) can have a non-zero code here.
    BitReader r(enc.bytes.data(), enc.bytes.size() * 8);
    bool ok = codec_->decompress(r, buf[idx]);
    assert(ok);
    (void)ok;
    for (LineIdx i = 0; i < kLinesPerPage; ++i) {
        if (m.line_code[i] == 0)
            continue;
        uint32_t off = offsets_.offset(m.line_code, i);
        if (off + bins_->binSize(m.line_code[i]) <= move_from)
            continue; // untouched prefix
        if (bins_->binSize(m.line_code[i]) == kLineBytes) {
            storeBytes(m, off, buf[i].data(), kLineBytes);
        } else {
            BitWriter w;
            codec_->compress(buf[i], w);
            storeBytes(m, off, w.bytes().data(), w.bytes().size());
        }
    }
    uint32_t rewrite_end = uint32_t(roundUp(new_pack, kLineBytes));
    if (rewrite_end > move_from)
        deviceOps(m, move_from, rewrite_end - move_from, true, false,
                  trace, AttribComp::kOverflowRelayout);
}

void
CompressoController::inflateToUncompressed(PageNum page, MetadataEntry &m,
                                           McTrace &trace, AttribComp comp)
{
    // Read out the whole compressed page, then store it raw in 8
    // chunks. Future streaming writebacks become 1:1 accesses.
    std::array<Line, kLinesPerPage> buf;
    gatherPage(m, buf);
    uint32_t old_used = usedBytes(m);
    if (m.chunks > 0)
        deviceOps(m, 0, old_used, false, false, trace, comp);
    uint64_t inflate_cost =
        (old_used + kLineBytes - 1) / kLineBytes + kLinesPerPage;
    st_overflow_move_ops_ += inflate_cost;
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kInflation, inflate_cost);

    if (!resizeAlloc(m, unsigned(kChunksPerPage)))
        return;
    m.compressed = false;
    m.inflate_count = 0;
    m.line_code.fill(uint8_t(bins_->count() - 1));
    for (LineIdx i = 0; i < kLinesPerPage; ++i)
        storeBytes(m, i * uint32_t(kLineBytes), buf[i].data(), kLineBytes);
    deviceOps(m, 0, kPageBytes, true, false, trace, comp);
    mdcache_.reshape(pageOf(Addr(page) * kPageBytes), m.halfCacheable());
}

void
CompressoController::repackPage(PageNum page, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcRepack);
    auto mit = pages_.find(page);
    if (mit == pages_.end())
        return;
    MetadataEntry &m = mit->second;
    if (!m.valid || m.zero || m.chunks == 0)
        return;
    // Repacking is a maintenance optimization (Sec. IV-B4): under
    // pressure the governor may defer it outright — skipping is always
    // safe, the page just keeps its current (larger) footprint.
    if (pressure_ != nullptr) {
        uint64_t est = 2ull * ((usedBytes(m) + kLineBytes - 1) / kLineBytes);
        if (!pressure_->admitOp(PressureOp::kRepack, est)) {
            ++st_repacks_throttled_;
            CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, page,
                          uint32_t(PressureOp::kRepack));
            return;
        }
    }
    BusyScope busy(*this, page);
    PageShadow &sh = shadow(page);

    // Gather current data.
    std::array<Line, kLinesPerPage> buf;
    gatherPage(m, buf);
    uint32_t old_used = usedBytes(m);

    // New layout straight from the actual compressibility.
    uint32_t new_pack = 0;
    bool all_zero = true;
    for (LineIdx i = 0; i < kLinesPerPage; ++i) {
        new_pack += bins_->binSize(sh.actual_bin[i]);
        all_zero &= sh.actual_bin[i] == 0;
    }

    ++st_repacks_;
    unsigned read_blocks = unsigned((old_used + kLineBytes - 1) / kLineBytes);
    st_repack_read_ops_ += read_blocks;
    deviceOps(m, 0, old_used, false, false, trace, AttribComp::kRepack);
    CPR_OBS_HIST(h_page_free_, m.free_space);

    if (all_zero) {
        resizeAlloc(m, 0);
        m.zero = true;
        m.compressed = false;
        m.inflate_count = 0;
        m.free_space = 0;
        m.line_code.fill(0);
        predictorPageShrink(page);
        CPR_OBS_EVENT(obs_, ObsEvent::kRepack, page, read_blocks);
        CPR_OBS_HIST(h_repack_cost_, read_blocks);
        CPR_OBS_HIST(h_page_alloc_, 0);
        if (pressure_ != nullptr)
            pressure_->onOpCost(PressureOp::kRepack, read_blocks);
        CPR_CHECKED_AUDIT(page, "repack (to zero page)");
        return;
    }

    uint32_t new_used = uint32_t(roundUp(new_pack, kLineBytes));
    uint32_t new_alloc = pageBinBytes(new_used, cfg_.page_sizing);

    if (new_alloc >= kPageBytes) {
        // Compression saves nothing: store the page raw. Raw pages
        // skip decompression on fills and only need the first half of
        // their metadata entry (Sec. IV-B5).
        resizeAlloc(m, unsigned(kChunksPerPage));
        m.line_code.fill(uint8_t(bins_->count() - 1));
        m.inflate_count = 0;
        m.compressed = false;
        m.free_space = 0;
        sh.predictor_inflated = false;
        for (LineIdx i = 0; i < kLinesPerPage; ++i)
            storeBytes(m, i * uint32_t(kLineBytes), buf[i].data(),
                       kLineBytes);
        st_repack_write_ops_ += kLinesPerPage;
        deviceOps(m, 0, kPageBytes, true, false, trace,
                  AttribComp::kRepack);
        mdcache_.reshape(page, m.halfCacheable());
        CPR_OBS_EVENT(obs_, ObsEvent::kRepack, page,
                      read_blocks + unsigned(kLinesPerPage));
        CPR_OBS_HIST(h_repack_cost_, read_blocks + kLinesPerPage);
        CPR_OBS_HIST(h_page_alloc_, kPageBytes);
        if (pressure_ != nullptr)
            pressure_->onOpCost(PressureOp::kRepack,
                                read_blocks + kLinesPerPage);
        CPR_CHECKED_AUDIT(page, "repack (to raw page)");
        return;
    }

    resizeAlloc(m, unsigned((new_alloc + kChunkBytes - 1) / kChunkBytes));
    m.line_code = sh.actual_bin;
    m.inflate_count = 0;
    m.compressed = true;
    m.free_space = 0;
    sh.predictor_inflated = false;

    for (LineIdx i = 0; i < kLinesPerPage; ++i) {
        if (m.line_code[i] == 0)
            continue;
        uint32_t off = offsets_.offset(m.line_code, i);
        if (bins_->binSize(m.line_code[i]) == kLineBytes) {
            storeBytes(m, off, buf[i].data(), kLineBytes);
        } else {
            BitWriter w;
            codec_->compress(buf[i], w);
            assert(w.bytes().size() <= bins_->binSize(m.line_code[i]));
            storeBytes(m, off, w.bytes().data(), w.bytes().size());
        }
    }
    unsigned write_blocks = unsigned((new_used + kLineBytes - 1) / kLineBytes);
    st_repack_write_ops_ += write_blocks;
    deviceOps(m, 0, new_used, true, false, trace, AttribComp::kRepack);
    predictorPageShrink(page);
    CPR_OBS_EVENT(obs_, ObsEvent::kRepack, page,
                  read_blocks + write_blocks);
    CPR_OBS_HIST(h_repack_cost_, read_blocks + write_blocks);
    CPR_OBS_HIST(h_page_alloc_, new_alloc);
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kRepack,
                            read_blocks + write_blocks);
    CPR_CHECKED_AUDIT(page, "repack");
}

void
CompressoController::updateFreeSpace(MetadataEntry &m, const PageShadow &sh)
{
    // A compressed page whose slots are all top-bin is laid out
    // exactly like a raw page (offsets i*64, lines stored raw).
    // Clearing the compressed bit costs nothing and lets the metadata
    // cache keep only the first half of its entry (Sec. IV-B5).
    if (m.compressed && m.inflate_count == 0) {
        bool all_top = true;
        for (uint8_t c : m.line_code)
            all_top &= bins_->binSize(c) == kLineBytes;
        if (all_top)
            m.compressed = false;
    }

    uint32_t potential_pack = 0;
    for (uint8_t b : sh.actual_bin)
        potential_pack += bins_->binSize(b);
    uint32_t potential_alloc =
        pageBinBytes(uint32_t(roundUp(potential_pack, kLineBytes)),
                     cfg_.page_sizing);
    uint32_t alloc = allocBytes(m);
    uint32_t free_b = alloc > potential_alloc ? alloc - potential_alloc : 0;
    m.free_space = uint16_t(std::min<uint32_t>(free_b, 4095));
}

// ---------------------------------------------------------------------
// Fault handling (the ladder itself lives in CompressedController)
// ---------------------------------------------------------------------

void
CompressoController::relayoutRaw(PageNum page, MetadataEntry &m,
                                 McTrace &trace)
{
    inflateToUncompressed(page, m, trace, AttribComp::kFaultRecovery);
    shadow(page).predictor_inflated = true;
    updateFreeSpace(m, shadow(page));
}

bool
CompressoController::recoverCorruptPage(PageNum page)
{
    auto mit = pages_.find(page);
    if (mit == pages_.end())
        return false;
    MetadataEntry &m = mit->second;

    // Cross-structure damage (chunks leaked, double-mapped, dead or
    // out of range) cannot be repaired from one page's view; only the
    // abort is safe there.
    const AuditReport damage = auditPage(page);
    for (const Violation &v : damage.violations()) {
        switch (v.kind) {
        case ViolationKind::kChunkLeak:
        case ViolationKind::kChunkDoubleMap:
        case ViolationKind::kChunkDead:
        case ViolationKind::kChunkOutOfRange:
        case ViolationKind::kMpfnMissing:
            return false;
        default:
            break;
        }
    }

    // Step 1: recompute derived fields (free_space is the common
    // casualty) and clear stale mpfn slots.
    for (unsigned c = m.chunks; c < kChunksPerPage; ++c)
        m.mpfn[c] = kNoChunk;
    bool codes_ok = true;
    for (uint8_t c : m.line_code)
        codes_ok &= c < bins_->count();
    if (codes_ok && m.valid && !m.zero) {
        updateFreeSpace(m, shadow(page));
        if (auditPage(page).clean()) {
            CPR_OBS_EVENT(obs_, ObsEvent::kFaultRecovery, page,
                          uint32_t(FaultRung::kAuditRecovery));
            return true;
        }
    }

    // Step 2: the layout itself is untrustworthy. Every mapped chunk
    // is live (checked above), so releasing them is safe; retire the
    // page to a poisoned zero state and surface the loss.
    resizeAlloc(m, 0);
    m = MetadataEntry{};
    m.valid = true;
    m.zero = true;
    shadow(page) = PageShadow{};
    mdcache_.invalidate(page);
    if (!fault_.pagePoisoned(page)) {
        fault_.poisonPage(page);
        ++stats_["fault_pages_poisoned"];
        CPR_OBS_EVENT(obs_, ObsEvent::kFaultRecovery, page,
                      uint32_t(FaultRung::kPagePoison));
    }
    return auditPage(page).clean();
}

// ---------------------------------------------------------------------
// Public operations
// ---------------------------------------------------------------------

void
CompressoController::fillLine(Addr addr, Line &data, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcFill);
    PageNum page = pageOf(addr);
    LineIdx idx = lineOf(addr);
    OpScope op(*this, page, trace);
    ++st_fills_;

    MetadataEntry &m = pages_[page];
    mdAccess(page, false, trace, m.halfCacheable());

    // Retired by the degradation ladder: serve the poison value.
    if (servePoisoned(page, addr, data))
        return;

    if (!m.valid || m.zero) {
        data.fill(0);
        ++st_zero_fills_;
        return;
    }

    int slot = m.compressed ? inflateSlot(m, idx) : -1;
    if (!m.compressed || slot >= 0) {
        // Raw page, or a line in the inflation room: stored raw.
        uint32_t off = !m.compressed
            ? idx * uint32_t(kLineBytes)
            : irBase(m) + uint32_t(slot) * uint32_t(kLineBytes);
        deviceOps(m, off, kLineBytes, false, true, trace);
        if (dataFaultPoisoned(addr, m, off, kLineBytes, data, trace))
            return;
        loadBytes(m, off, data.data(), kLineBytes);
        return;
    }

    unsigned code = m.line_code[idx];
    if (code == 0) {
        data.fill(0);
        ++st_zero_fills_;
        return;
    }

    // The offset circuit is metadata-side work: fold it into the
    // mdcache_hit component (DESIGN.md §15).
    trace.addFixed(AttribComp::kMdcacheHit, offsets_.extraCycles());
    uint32_t off = offsets_.offset(m.line_code, idx);
    uint16_t sz = bins_->binSize(code);
    noteSplit(st_split_fill_lines_, page,
              deviceOps(m, off, sz, false, true, trace));
    if (dataFaultPoisoned(addr, m, off, sz, data, trace))
        return;
    decodeSlot(m, off, code, data);
    if (sz != kLineBytes)
        trace.addFixed(AttribComp::kDecompress, cfg_.compression_latency);

    // Free prefetch: neighboring compressed lines that arrived whole
    // within the fetched 64 B bursts (Sec. VII-A).
    uint32_t blk_lo = (off / kLineBytes) * uint32_t(kLineBytes);
    uint32_t blk_hi = uint32_t(roundUp(off + sz, kLineBytes));
    uint32_t acc = 0;
    for (LineIdx i = 0; i < kLinesPerPage; ++i) {
        uint16_t li_sz = bins_->binSize(m.line_code[i]);
        uint32_t lo = acc;
        acc += li_sz;
        if (i == idx || li_sz == 0 || inflateSlot(m, i) >= 0)
            continue;
        if (lo >= blk_lo && lo + li_sz <= blk_hi &&
            trace.co_fetched.size() < 8) {
            trace.co_fetched.push_back(pageOf(addr) * kPageBytes +
                                       Addr(i) * kLineBytes);
        }
    }
    st_co_fetched_lines_ += trace.co_fetched.size();
}

void
CompressoController::noteActualBin(PageNum page, MetadataEntry &m,
                                   PageShadow &sh, LineIdx idx,
                                   unsigned bin)
{
    if (bin < sh.actual_bin[idx]) {
        ++st_line_underflows_;
        predictor_.onLineUnderflow(mdcache_.predictorCounter(page));
    }
    sh.actual_bin[idx] = uint8_t(bin);
    updateFreeSpace(m, sh);
}

void
CompressoController::writebackLine(Addr addr, const Line &data,
                                   McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcWriteback);
    PageNum page = pageOf(addr);
    LineIdx idx = lineOf(addr);
    OpScope op(*this, page, trace);
    ++st_writebacks_;

    MetadataEntry &m = pages_[page];
    mdAccess(page, true, trace, m.halfCacheable());

    if (dropPoisonedWriteback(page, addr))
        return;

    Encoded enc = encodeLine(data);
    CPR_OBS_HIST(h_line_bytes_, enc.zero ? 0 : enc.bytes.size());
    PageShadow &sh = shadow(page);

    if (!m.valid)
        firstTouch(m);

    if (m.zero) {
        if (enc.zero) {
            ++st_zero_wbs_;
            return;
        }
        // First real data in the page: give the line a right-sized
        // slot directly (all other lines are zero, nothing moves).
        materializeZeroPage(m, sh);
        m.line_code[idx] = uint8_t(enc.bin);
        uint32_t pack = uint32_t(roundUp(bins_->binSize(enc.bin),
                                         kLineBytes));
        uint32_t alloc = pageBinBytes(pack, cfg_.page_sizing);
        resizeAlloc(m, unsigned((alloc + kChunkBytes - 1) / kChunkBytes));
    }

    trace.addFixed(AttribComp::kCompress, cfg_.compression_latency);

    int slot = m.compressed ? inflateSlot(m, idx) : -1;
    if (!m.compressed || slot >= 0) {
        // Raw page, or a line in the inflation room: store it raw.
        uint32_t off = !m.compressed
            ? idx * uint32_t(kLineBytes)
            : irBase(m) + uint32_t(slot) * uint32_t(kLineBytes);
        deviceOps(m, off, kLineBytes, true, false, trace);
        storeBytes(m, off, data.data(), kLineBytes);
        noteActualBin(page, m, sh, idx, enc.bin);
        CPR_CHECKED_AUDIT(page, !m.compressed ? "writeback (raw page)"
                                              : "writeback (inflation room)");
        return;
    }

    unsigned code = m.line_code[idx];
    if (enc.bin <= code) {
        if (enc.zero && code == 0) {
            ++st_zero_wbs_;
        } else {
            writeToSlot(page, m, idx, enc, trace);
        }
        noteActualBin(page, m, sh, idx, enc.bin);
        CPR_CHECKED_AUDIT(page, "writeback (in place)");
        return;
    }

    handleLineOverflow(page, m, idx, data, enc, trace);
    sh.actual_bin[idx] = uint8_t(enc.bin);
    updateFreeSpace(m, sh);
    CPR_CHECKED_AUDIT(page, "writeback (overflow/inflation)");
}

// ---------------------------------------------------------------------
// Accounting & maintenance
// ---------------------------------------------------------------------

void
CompressoController::onPageFreed(PageNum page)
{
    shadow_.erase(page);
    CPR_CHECKED_AUDIT(page, "freePage (balloon release)");
}

void
CompressoController::repackAll()
{
    McTrace scratch;
    cur_trace_ = &scratch;
    std::vector<PageNum> pages;
    pages.reserve(pages_.size());
    for (const auto &[page, m] : pages_)
        if (m.valid && !m.zero && m.free_space >= kChunkBytes)
            pages.push_back(page);
    for (PageNum p : pages)
        repackPage(p, scratch);
    cur_trace_ = nullptr;
}

// ---------------------------------------------------------------------
// Invariant audit (src/check)
// ---------------------------------------------------------------------

AuditReport
CompressoController::audit() const
{
    AuditReport rep;
    InvariantAuditor auditor(*bins_, cfg_.page_sizing);
    InvariantAuditor::ChunkCrossCheck xcheck;
    for (const auto &[page, m] : pages_) {
        auto sit = shadow_.find(page);
        const uint8_t *actual_bin =
            sit != shadow_.end() && m.valid && !m.zero
                ? sit->second.actual_bin.data()
                : nullptr;
        auditor.checkCompressoPage(page, m, actual_bin, chunks_, rep);
        if (m.valid && !m.zero)
            for (unsigned c = 0; c < m.chunks && c < kChunksPerPage;
                 ++c)
                if (m.mpfn[c] != kNoChunk)
                    xcheck.mapChunk(page, m.mpfn[c], rep);
    }
    xcheck.finish(chunks_, rep);
    return rep;
}

AuditReport
CompressoController::auditPage(PageNum page) const
{
    AuditReport rep;
    InvariantAuditor auditor(*bins_, cfg_.page_sizing);
    auto mit = pages_.find(page);
    if (mit != pages_.end()) {
        auto sit = shadow_.find(page);
        const uint8_t *actual_bin =
            sit != shadow_.end() && mit->second.valid &&
                    !mit->second.zero
                ? sit->second.actual_bin.data()
                : nullptr;
        auditor.checkCompressoPage(page, mit->second, actual_bin,
                                   chunks_, rep);
    }
    if (chunks_.usedChunks() > chunks_.totalChunks())
        rep.add(ViolationKind::kChunkCountBad, kNoPage, kNoChunk,
                "allocator used > total");
    return rep;
}

void
CompressoController::checkedAudit(PageNum page, const char *site)
{
    AuditReport rep = auditPage(page);
    if (rep.clean())
        return;
#ifdef COMPRESSO_FAULT_RECOVERY
    // Degrade instead of abort — but only when a fault campaign with
    // recovery enabled is running; plain checked builds (and the
    // auditor's own death tests) keep the fail-stop contract.
    if (fault_.recoveryEnabled() && recoverCorruptPage(page)) {
        ++stats_["fault_audit_recoveries"];
        fault_.injector()->noteAuditRecovery();
        return;
    }
#endif
    std::fprintf(stderr,
                 "COMPRESSO_CHECKED_BUILD: invariant violation "
                 "after %s (page %llu)\n%s",
                 site, static_cast<unsigned long long>(page),
                 rep.summary().c_str());
    std::abort();
}

} // namespace compresso

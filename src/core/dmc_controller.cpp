#include "core/dmc_controller.h"

#include <algorithm>
#include <cassert>

#include "prof/profiler.h"
#include "packing/linepack.h"

namespace compresso {

namespace {

constexpr Addr kMetadataRegionBase = Addr(1) << 43;

} // namespace

DmcController::DmcController(const DmcConfig &cfg)
    : CompressedController({.installed_bytes = cfg.installed_bytes,
                            .mdcache = cfg.mdcache,
                            .metadata_base = kMetadataRegionBase,
                            .md_hit_latency = cfg.mdcache_hit_latency}),
      cfg_(cfg),
      hot_codec_(makeCompressor(cfg.hot_compressor)),
      cold_codec_(makeCompressor(cfg.cold_compressor))
{
    assert(hot_codec_ && cold_codec_ && "unknown compressor name");
}

uint32_t
DmcController::hotPack(const DmcPage &p) const
{
    uint32_t sum = 0;
    for (uint8_t c : p.code)
        sum += compressoBins().binSize(c);
    return sum;
}

uint32_t
DmcController::hotOffset(const DmcPage &p, LineIdx idx) const
{
    uint32_t off = 0;
    for (LineIdx l = 0; l < idx; ++l)
        off += compressoBins().binSize(p.code[l]);
    return off;
}

void
DmcController::readHotLine(const DmcPage &p, LineIdx idx, Line &out) const
{
    if (p.code[idx] == 0) {
        out.fill(0);
        return;
    }
    uint16_t sz = compressoBins().binSize(p.code[idx]);
    uint32_t off = hotOffset(p, idx);
    if (sz == kLineBytes) {
        loadBytes(p, off, out.data(), kLineBytes);
        return;
    }
    uint8_t buf[kLineBytes];
    loadBytes(p, off, buf, sz);
    BitReader r(buf, size_t(sz) * 8);
    bool ok = hot_codec_->decompress(r, out);
    assert(ok && "corrupt DMC hot slot");
    (void)ok;
}

void
DmcController::gather(const DmcPage &p, std::array<Line, kLinesPerPage> &buf,
                      McTrace *trace, AttribComp comp)
{
    if (!p.valid || p.zero) {
        for (auto &l : buf)
            l.fill(0);
        return;
    }
    if (!p.cold) {
        for (LineIdx l = 0; l < kLinesPerPage; ++l)
            readHotLine(p, l, buf[l]);
        if (trace) {
            uint32_t used = hotPack(p);
            deviceOps(p, 0, used, false, false, *trace, comp);
        }
        return;
    }
    // Cold: decompress every block (line streams back to back).
    uint32_t off = 0;
    for (unsigned b = 0; b < kColdBlocks; ++b) {
        std::vector<uint8_t> raw(p.cold_bytes[b]);
        loadBytes(p, off, raw.data(), raw.size());
        BitReader r(raw.data(), raw.size() * 8);
        for (unsigned l = 0; l < kLinesPerColdBlock; ++l) {
            bool ok = cold_codec_->decompress(
                r, buf[b * kLinesPerColdBlock + l]);
            assert(ok && "corrupt DMC cold block");
            (void)ok;
        }
        if (trace)
            deviceOps(p, off, p.cold_bytes[b], false, false, *trace,
                      comp);
        off += p.cold_bytes[b];
    }
}

void
DmcController::layoutHot(DmcPage &p,
                         const std::array<Line, kLinesPerPage> &buf,
                         McTrace &trace, AttribComp comp)
{
    std::array<std::vector<uint8_t>, kLinesPerPage> enc;
    uint32_t pack = 0;
    bool all_zero = true;
    for (LineIdx l = 0; l < kLinesPerPage; ++l) {
        if (isZeroLine(buf[l])) {
            p.code[l] = 0;
            continue;
        }
        all_zero = false;
        BitWriter w;
        hot_codec_->compress(buf[l], w);
        enc[l] = w.bytes();
        p.code[l] =
            uint8_t(compressoBins().binFor(enc[l].size(), false));
    }
    p.cold = false;
    if (all_zero) {
        p.zero = true;
        p.code.fill(0);
        resizeAlloc(p, 0);
        return;
    }
    for (uint8_t c : p.code)
        pack += compressoBins().binSize(c);
    uint32_t alloc = pageBinBytes(uint32_t(roundUp(pack, kLineBytes)),
                                  PageSizing::kVariable4);
    resizeAlloc(p, (alloc + uint32_t(kChunkBytes) - 1) /
                       uint32_t(kChunkBytes));
    for (LineIdx l = 0; l < kLinesPerPage; ++l) {
        if (p.code[l] == 0)
            continue;
        uint32_t off = hotOffset(p, l);
        if (compressoBins().binSize(p.code[l]) == kLineBytes)
            storeBytes(p, off, buf[l].data(), kLineBytes);
        else
            storeBytes(p, off, enc[l].data(), enc[l].size());
    }
    deviceOps(p, 0, uint32_t(roundUp(pack, kLineBytes)), true, false,
              trace, comp);
}

void
DmcController::demoteToCold(PageNum pn, DmcPage &p, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcRepack);
    size_t ops_before = trace.ops.size();
    std::array<Line, kLinesPerPage> buf;
    gather(p, buf, &trace);
    st_migration_ops_ += trace.ops.size();

    // Compress each 1 KB block as one unit (line streams concatenated).
    std::array<std::vector<uint8_t>, kColdBlocks> blocks;
    uint32_t total = 0;
    for (unsigned b = 0; b < kColdBlocks; ++b) {
        BitWriter w;
        for (unsigned l = 0; l < kLinesPerColdBlock; ++l)
            cold_codec_->compress(buf[b * kLinesPerColdBlock + l], w);
        blocks[b] = w.bytes();
        p.cold_bytes[b] = uint32_t(blocks[b].size());
        total += p.cold_bytes[b];
    }
    uint32_t alloc = pageBinBytes(
        std::min<uint32_t>(uint32_t(roundUp(total, kLineBytes)),
                           kPageBytes),
        PageSizing::kVariable4);
    if (alloc < total) {
        // LZ expansion beyond a page never pays off: stay hot.
        layoutHot(p, buf, trace);
        if (pressure_ != nullptr)
            pressure_->onOpCost(PressureOp::kRepack,
                                trace.ops.size() - ops_before);
        return;
    }
    resizeAlloc(p, (alloc + uint32_t(kChunkBytes) - 1) /
                       uint32_t(kChunkBytes));
    p.cold = true;
    uint32_t off = 0;
    for (unsigned b = 0; b < kColdBlocks; ++b) {
        storeBytes(p, off, blocks[b].data(), blocks[b].size());
        off += p.cold_bytes[b];
    }
    deviceOps(p, 0, total, true, false, trace, AttribComp::kRepack);
    ++st_demotions_;
    CPR_OBS_EVENT(obs_, ObsEvent::kRepack, pn, 0);
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kRepack,
                            trace.ops.size() - ops_before);
}

void
DmcController::promoteToHot(PageNum pn, DmcPage &p, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcRepack);
    size_t ops_before = trace.ops.size();
    std::array<Line, kLinesPerPage> buf;
    gather(p, buf, &trace);
    layoutHot(p, buf, trace);
    st_migration_ops_ += trace.ops.size();
    ++st_promotions_;
    CPR_OBS_EVENT(obs_, ObsEvent::kRepack, pn, 1);
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kRelocation,
                            trace.ops.size() - ops_before);
}

void
DmcController::decayEpoch(McTrace &trace)
{
    unsigned budget = 64; // bounded migration work per epoch
    for (auto &[pn, p] : pages_) {
        if (!p.valid || p.zero)
            continue;
        if (!p.touched_this_epoch && !p.cold && budget > 0) {
            // Maintenance migration: under pressure the governor may
            // deny it outright (demotion is an optimization, never
            // required for correctness).
            if (pressure_ != nullptr &&
                !pressure_->admitOp(PressureOp::kRepack,
                                    2ull * kLinesPerPage)) {
                ++st_demotions_throttled_;
                CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, pn,
                              uint32_t(PressureOp::kRepack));
                p.touched_this_epoch = false;
                continue;
            }
            BusyScope migrating(*this, pn);
            demoteToCold(pn, p, trace);
            --budget;
        }
        p.touched_this_epoch = false;
    }
}

uint32_t
DmcController::rebuildWalkBytes(const DmcPage &p) const
{
    if (!p.cold)
        return hotPack(p);
    uint32_t used = 0;
    for (unsigned b = 0; b < kColdBlocks; ++b)
        used += p.cold_bytes[b];
    return used;
}

uint64_t
DmcController::rebuildEstimate(const DmcPage &p, uint32_t walk) const
{
    (void)walk;
    return uint64_t(p.chunks) * (kChunkBytes / kLineBytes) + 1;
}

bool
DmcController::pageRaw(const DmcPage &p) const
{
    bool raw = !p.cold;
    for (LineIdx l = 0; raw && l < kLinesPerPage; ++l)
        raw = p.code[l] == uint8_t(compressoBins().count() - 1);
    return raw;
}

void
DmcController::relayoutRaw(PageNum pn, DmcPage &p, McTrace &trace)
{
    // Slot lookups stop depending on the per-line codes or cold block
    // sizes.
    (void)pn;
    std::array<Line, kLinesPerPage> buf;
    gather(p, buf, &trace, AttribComp::kFaultRecovery);
    p.cold = false;
    p.cold_bytes.fill(0);
    for (LineIdx l = 0; l < kLinesPerPage; ++l)
        p.code[l] = uint8_t(compressoBins().count() - 1);
    resizeAlloc(p, unsigned(kChunksPerPage));
    for (LineIdx l = 0; l < kLinesPerPage; ++l)
        storeBytes(p, hotOffset(p, l), buf[l].data(), kLineBytes);
    deviceOps(p, 0, kPageBytes, true, false, trace,
              AttribComp::kFaultRecovery);
}

void
DmcController::fillLine(Addr addr, Line &data, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcFill);
    PageNum pn = pageOf(addr);
    LineIdx idx = lineOf(addr);
    OpScope op(*this, pn, trace);
    ++st_fills_;

    DmcPage &p = pages_[pn];
    mdAccess(pn, false, trace);
    p.touched_this_epoch = true;

    if (servePoisoned(pn, addr, data))
        return;

    if (!p.valid || p.zero) {
        data.fill(0);
        ++st_zero_fills_;
        return;
    }

    if (p.cold) {
        // Fetch + decompress the whole 1 KB block for one line.
        unsigned b = idx / kLinesPerColdBlock;
        uint32_t off = 0;
        for (unsigned i = 0; i < b; ++i)
            off += p.cold_bytes[i];
        deviceOps(p, off, p.cold_bytes[b], false, true, trace);
        trace.addFixed(AttribComp::kDecompress, cfg_.cold_latency);
        ++st_cold_block_reads_;
        if (dataFaultPoisoned(addr, p, off, p.cold_bytes[b], data, trace))
            return;

        std::vector<uint8_t> raw(p.cold_bytes[b]);
        loadBytes(p, off, raw.data(), raw.size());
        BitReader r(raw.data(), raw.size() * 8);
        Line tmp;
        for (unsigned l = 0; l <= idx % kLinesPerColdBlock; ++l) {
            bool ok = cold_codec_->decompress(r, tmp);
            assert(ok);
            (void)ok;
        }
        data = tmp;
        return;
    }

    if (p.code[idx] == 0) {
        data.fill(0);
        ++st_zero_fills_;
        return;
    }
    uint16_t sz = compressoBins().binSize(p.code[idx]);
    uint32_t off = hotOffset(p, idx);
    // Offset adder, folded into the metadata component like
    // Compresso's offset circuit (DESIGN.md §15).
    trace.addFixed(AttribComp::kMdcacheHit, 1);
    noteSplit(st_split_fill_lines_, pn,
              deviceOps(p, off, sz, false, true, trace));
    if (dataFaultPoisoned(addr, p, off, sz, data, trace))
        return;
    readHotLine(p, idx, data);
    if (sz != kLineBytes)
        trace.addFixed(AttribComp::kDecompress, cfg_.hot_latency);
}

void
DmcController::writebackLine(Addr addr, const Line &data, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcWriteback);
    PageNum pn = pageOf(addr);
    LineIdx idx = lineOf(addr);
    OpScope op(*this, pn, trace);
    ++st_writebacks_;

    DmcPage &p = pages_[pn];
    mdAccess(pn, true, trace);
    p.touched_this_epoch = true;

    if (dropPoisonedWriteback(pn, addr))
        return;

    bool zero = isZeroLine(data);
    if (!p.valid) {
        p.valid = true;
        p.zero = true;
        ++st_pages_touched_;
    }
    if (p.zero) {
        if (zero) {
            ++st_zero_wbs_;
            return;
        }
        p.zero = false;
        p.cold = false;
        p.code.fill(0);
    }

    if (p.cold) {
        // Writes promote: cold blocks are read-optimized.
        promoteToHot(pn, p, trace);
    }

    trace.addFixed(AttribComp::kCompress, cfg_.hot_latency);
    BitWriter w;
    hot_codec_->compress(data, w);
    unsigned bin = compressoBins().binFor(w.bytes().size(), zero);
    CPR_OBS_HIST(h_line_bytes_, zero ? 0 : w.bytes().size());

    if (bin <= p.code[idx]) {
        if (zero && p.code[idx] == 0) {
            ++st_zero_wbs_;
        } else {
            uint32_t off = hotOffset(p, idx);
            // A raw slot stores the 64 raw bytes; an incompressible
            // line's encoding can exceed kLineBytes.
            size_t len = compressoBins().binSize(p.code[idx]) ==
                                 kLineBytes
                             ? kLineBytes
                             : std::max<size_t>(w.bytes().size(), 1);
            deviceOps(p, off, len, true, false, trace);
            if (compressoBins().binSize(p.code[idx]) == kLineBytes)
                storeBytes(p, off, data.data(), kLineBytes);
            else
                storeBytes(p, off, w.bytes().data(), w.bytes().size());
        }
    } else {
        // No inflation room in DMC: every overflow re-lays the page
        // out (the data-movement cost the paper points at).
        CPR_PROF_SCOPE(ProfPhase::kMcOverflow);
        ++st_line_overflows_;
        CPR_OBS_EVENT(obs_, ObsEvent::kLineOverflow, pn, idx);
        std::array<Line, kLinesPerPage> buf;
        gather(p, buf, &trace, AttribComp::kOverflowRelayout);
        buf[idx] = data;
        layoutHot(p, buf, trace, AttribComp::kOverflowRelayout);
        st_migration_ops_ += 2;
    }

    if (++epoch_wbs_ >= cfg_.epoch_writebacks) {
        epoch_wbs_ = 0;
        decayEpoch(trace);
    }
}

} // namespace compresso

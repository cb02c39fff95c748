#include "core/rmc_controller.h"

#include <algorithm>
#include <cassert>

#include "prof/profiler.h"
#include "packing/linepack.h"

namespace compresso {

namespace {

constexpr Addr kMetadataRegionBase = Addr(1) << 42;

} // namespace

RmcController::RmcController(const RmcConfig &cfg)
    : CompressedController({.installed_bytes = cfg.installed_bytes,
                            .mdcache = cfg.bst,
                            .metadata_base = kMetadataRegionBase,
                            .md_hit_latency = cfg.bst_hit_latency,
                            .md_hit_comp = AttribComp::kBstWalk,
                            .md_miss_comp = AttribComp::kBstWalk}),
      cfg_(cfg),
      bins_(cfg.alignment_friendly ? &compressoBins() : &legacyBins()),
      codec_(makeCompressor(cfg.compressor))
{
    assert(codec_ && "unknown compressor name");
}

uint32_t
RmcController::subPack(const RmcPage &p, unsigned sp) const
{
    uint32_t sum = 0;
    for (unsigned l = sp * kLinesPerSubpage;
         l < (sp + 1) * kLinesPerSubpage; ++l) {
        sum += bins_->binSize(p.code[l]);
    }
    return sum;
}

uint32_t
RmcController::subBase(const RmcPage &p, unsigned sp) const
{
    uint32_t base = 0;
    for (unsigned s = 0; s < sp; ++s)
        base += p.sub_alloc[s];
    return base;
}

uint32_t
RmcController::lineOffset(const RmcPage &p, LineIdx idx) const
{
    unsigned sp = subpageOf(idx);
    uint32_t off = subBase(p, sp);
    for (unsigned l = sp * kLinesPerSubpage; l < idx; ++l)
        off += bins_->binSize(p.code[l]);
    return off;
}

uint32_t
RmcController::usedBytes(const RmcPage &p)
{
    uint32_t used = 0;
    for (unsigned sp = 0; sp < kSubpages; ++sp)
        used += p.sub_alloc[sp];
    return used;
}

void
RmcController::readStored(const RmcPage &p, LineIdx idx, Line &out) const
{
    if (!p.valid || p.zero || p.code[idx] == 0) {
        out.fill(0);
        return;
    }
    uint16_t sz = bins_->binSize(p.code[idx]);
    uint32_t off = lineOffset(p, idx);
    if (sz == kLineBytes) {
        loadBytes(p, off, out.data(), kLineBytes);
        return;
    }
    uint8_t buf[kLineBytes];
    loadBytes(p, off, buf, sz);
    BitReader r(buf, size_t(sz) * 8);
    bool ok = codec_->decompress(r, out);
    assert(ok && "corrupt RMC slot");
    (void)ok;
}

void
RmcController::relayout(PageNum pn, RmcPage &p,
                        const std::array<uint8_t, kLinesPerPage> &codes,
                        LineIdx idx, const Line &raw, bool os_fault,
                        McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcOverflow);
    // Re-layout admission: a blown relocation budget (watchdog)
    // forces the raw layout — terminal, the page cannot overflow
    // again — instead of another compressed re-layout.
    bool escalate_raw = false;
    uint32_t old_used = usedBytes(p);
    if (pressure_ != nullptr) {
        uint64_t est =
            2ull * (old_used / kLineBytes + uint64_t(kLinesPerPage));
        if (!pressure_->admitOp(PressureOp::kRelocation, est)) {
            escalate_raw = true;
            ++st_overflow_escalations_;
            CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, pn,
                          uint32_t(PressureOp::kRelocation));
        }
    }
    // Governor-denied relocations still relocate (to the raw layout);
    // their traffic is charged to the pressure component.
    AttribComp relayout_comp = escalate_raw
                                   ? AttribComp::kPressureStall
                                   : AttribComp::kOverflowRelayout;
    // Gather current data.
    std::array<Line, kLinesPerPage> buf;
    for (LineIdx l = 0; l < kLinesPerPage; ++l)
        readStored(p, l, buf[l]);
    buf[idx] = raw;

    if (p.chunks > 0)
        deviceOps(p, 0, old_used, false, false, trace, relayout_comp);
    st_overflow_move_ops_ += (old_used + kLineBytes - 1) /
                                   kLineBytes;

    p.code = codes;
    uint32_t total = 0;
    for (unsigned sp = 0; sp < kSubpages; ++sp) {
        p.sub_alloc[sp] = subPack(p, sp) + cfg_.hysteresis_bytes;
        total += p.sub_alloc[sp];
    }
    uint32_t alloc = pageBinBytes(std::min<uint32_t>(total, kPageBytes),
                                  PageSizing::kVariable4);
    if (escalate_raw || alloc < total) {
        // Full page: store raw, subpages degenerate to 1 KB each.
        for (unsigned sp = 0; sp < kSubpages; ++sp)
            p.sub_alloc[sp] = uint32_t(kPageBytes / kSubpages);
        for (LineIdx l = 0; l < kLinesPerPage; ++l)
            p.code[l] = uint8_t(bins_->count() - 1);
        alloc = uint32_t(kPageBytes);
    }
    resizeAlloc(p, (alloc + uint32_t(kChunkBytes) - 1) /
                       uint32_t(kChunkBytes));

    if (os_fault) {
        ++st_page_overflows_;
        CPR_OBS_EVENT(obs_, ObsEvent::kPageOverflow, pn, 0);
        CPR_OBS_EVENT(obs_, ObsEvent::kPageFault, pn,
                      uint32_t(cfg_.page_fault_cycles));
        osFaultStall(trace);
    } else {
        ++st_subpage_shifts_;
    }

    uint32_t new_used = usedBytes(p);
    for (LineIdx l = 0; l < kLinesPerPage; ++l) {
        if (p.code[l] == 0)
            continue;
        uint32_t off = lineOffset(p, l);
        if (bins_->binSize(p.code[l]) == kLineBytes) {
            storeBytes(p, off, buf[l].data(), kLineBytes);
        } else {
            BitWriter w;
            codec_->compress(buf[l], w);
            storeBytes(p, off, w.bytes().data(), w.bytes().size());
        }
    }
    deviceOps(p, 0, new_used, true, false, trace, relayout_comp);
    st_overflow_move_ops_ += (new_used + kLineBytes - 1) /
                                   kLineBytes;
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kRelocation,
                            uint64_t((old_used + kLineBytes - 1) /
                                     kLineBytes) +
                                (new_used + kLineBytes - 1) / kLineBytes);
}

void
RmcController::osFaultStall(McTrace &trace)
{
    ++st_page_faults_;
    st_page_fault_cycles_ += cfg_.page_fault_cycles;
    trace.addStall(AttribComp::kOsFault, cfg_.page_fault_cycles);
}

bool
RmcController::pageRaw(const RmcPage &p) const
{
    bool raw = true;
    for (LineIdx l = 0; l < kLinesPerPage; ++l)
        raw &= p.code[l] == uint8_t(bins_->count() - 1);
    return raw;
}

void
RmcController::relayoutRaw(PageNum pn, RmcPage &p, McTrace &trace)
{
    // relayout()'s full-page fallback: later slot lookups no longer
    // depend on the per-line codes.
    (void)pn;
    std::array<Line, kLinesPerPage> buf;
    for (LineIdx l = 0; l < kLinesPerPage; ++l)
        readStored(p, l, buf[l]);
    deviceOps(p, 0, usedBytes(p), false, false, trace,
              AttribComp::kFaultRecovery);
    for (unsigned sp = 0; sp < kSubpages; ++sp)
        p.sub_alloc[sp] = uint32_t(kPageBytes / kSubpages);
    for (LineIdx l = 0; l < kLinesPerPage; ++l)
        p.code[l] = uint8_t(bins_->count() - 1);
    resizeAlloc(p, unsigned(kChunksPerPage));
    for (LineIdx l = 0; l < kLinesPerPage; ++l)
        storeBytes(p, lineOffset(p, l), buf[l].data(), kLineBytes);
    deviceOps(p, 0, kPageBytes, true, false, trace,
              AttribComp::kFaultRecovery);
}

void
RmcController::fillLine(Addr addr, Line &data, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcFill);
    PageNum pn = pageOf(addr);
    LineIdx idx = lineOf(addr);
    OpScope op(*this, pn, trace);
    ++st_fills_;

    RmcPage &p = pages_[pn];
    mdAccess(pn, false, trace);

    if (servePoisoned(pn, addr, data))
        return;

    if (!p.valid || p.zero || p.code[idx] == 0) {
        data.fill(0);
        ++st_zero_fills_;
        return;
    }

    uint16_t sz = bins_->binSize(p.code[idx]);
    uint32_t off = lineOffset(p, idx);
    trace.addFixed(AttribComp::kBstWalk, 1); // BST-side offset adder
    noteSplit(st_split_fill_lines_, pn,
              deviceOps(p, off, sz, false, true, trace));
    if (dataFaultPoisoned(addr, p, off, sz, data, trace))
        return;
    readStored(p, idx, data);
    if (sz != kLineBytes)
        trace.addFixed(AttribComp::kDecompress, cfg_.compression_latency);
}

void
RmcController::writebackLine(Addr addr, const Line &data, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcWriteback);
    PageNum pn = pageOf(addr);
    LineIdx idx = lineOf(addr);
    OpScope op(*this, pn, trace);
    ++st_writebacks_;

    RmcPage &p = pages_[pn];
    mdAccess(pn, true, trace);

    if (dropPoisonedWriteback(pn, addr))
        return;

    bool zero = isZeroLine(data);
    BitWriter w;
    codec_->compress(data, w);
    unsigned bin = bins_->binFor(w.bytes().size(), zero);
    CPR_OBS_HIST(h_line_bytes_, zero ? 0 : w.bytes().size());

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
        // First data: lay out the page with this line's code.
        p.zero = false;
        p.code.fill(0);
        std::array<uint8_t, kLinesPerPage> codes{};
        codes[idx] = uint8_t(bin);
        // relayout() reads old content; page has no chunks yet.
        trace.addFixed(AttribComp::kCompress, cfg_.compression_latency);
        relayout(pn, p, codes, idx, data, false, trace);
        st_subpage_shifts_ -= 1; // initial layout is not a shift
        return;
    }

    trace.addFixed(AttribComp::kCompress, cfg_.compression_latency);
    unsigned code = p.code[idx];

    if (bin <= code) {
        // Fits its slot.
        if (zero && code == 0) {
            ++st_zero_wbs_;
        } else {
            uint32_t off = lineOffset(p, idx);
            uint16_t sz = bins_->binSize(code);
            // A raw slot stores the 64 raw bytes; an incompressible
            // line's encoding can exceed kLineBytes.
            size_t len = sz == kLineBytes
                             ? kLineBytes
                             : std::max<size_t>(w.bytes().size(), 1);
            noteSplit(st_split_wb_lines_, pn,
                      deviceOps(p, off, len, true, false, trace));
            if (sz == kLineBytes)
                storeBytes(p, off, data.data(), kLineBytes);
            else
                storeBytes(p, off, w.bytes().data(), w.bytes().size());
        }
        return;
    }

    // Line overflow: try to absorb it in the subpage's hysteresis.
    ++st_line_overflows_;
    CPR_OBS_EVENT(obs_, ObsEvent::kLineOverflow, pn, idx);
    unsigned sp = subpageOf(idx);
    std::array<uint8_t, kLinesPerPage> codes = p.code;
    codes[idx] = uint8_t(bin);
    uint32_t new_pack = 0;
    for (unsigned l = sp * kLinesPerSubpage;
         l < (sp + 1) * kLinesPerSubpage; ++l) {
        new_pack += bins_->binSize(codes[l]);
    }

    if (new_pack <= p.sub_alloc[sp]) {
        // Hysteresis absorbs it: shift only the lines after idx within
        // this subpage ("light" movement).
        std::array<Line, kLinesPerSubpage> buf;
        for (unsigned l = idx + 1; l < (sp + 1) * kLinesPerSubpage; ++l)
            readStored(p, LineIdx(l), buf[l - sp * kLinesPerSubpage]);
        uint32_t moved_from = lineOffset(p, idx);
        uint32_t sub_end = subBase(p, sp) + p.sub_alloc[sp];
        deviceOps(p, moved_from, sub_end - moved_from, false, false,
                  trace, AttribComp::kOverflowRelayout);
        p.code = codes;
        uint32_t off = lineOffset(p, idx);
        if (bins_->binSize(bin) == kLineBytes)
            storeBytes(p, off, data.data(), kLineBytes);
        else
            storeBytes(p, off, w.bytes().data(), w.bytes().size());
        for (unsigned l = idx + 1; l < (sp + 1) * kLinesPerSubpage;
             ++l) {
            const Line &src = buf[l - sp * kLinesPerSubpage];
            if (p.code[l] == 0)
                continue;
            uint32_t loff = lineOffset(p, LineIdx(l));
            if (bins_->binSize(p.code[l]) == kLineBytes) {
                storeBytes(p, loff, src.data(), kLineBytes);
            } else {
                BitWriter lw;
                codec_->compress(src, lw);
                storeBytes(p, loff, lw.bytes().data(),
                           lw.bytes().size());
            }
        }
        deviceOps(p, moved_from, sub_end - moved_from, true, false,
                  trace, AttribComp::kOverflowRelayout);
        st_overflow_move_ops_ +=
            2ull * ((sub_end - moved_from + kLineBytes - 1) /
                    kLineBytes);
        ++st_hysteresis_absorbs_;
        return;
    }

    // Subpage outgrew its slack: rebuild the page layout. If the new
    // total still fits the current allocation it is a subpage shift;
    // otherwise the OS must reallocate (page fault).
    uint32_t total = 0;
    for (unsigned s = 0; s < kSubpages; ++s) {
        uint32_t pack = 0;
        for (unsigned l = s * kLinesPerSubpage;
             l < (s + 1) * kLinesPerSubpage; ++l) {
            pack += bins_->binSize(codes[l]);
        }
        total += pack + cfg_.hysteresis_bytes;
    }
    bool os_fault = pageBinBytes(std::min<uint32_t>(total, kPageBytes),
                                 PageSizing::kVariable4) >
                    allocBytes(p);
    relayout(pn, p, codes, idx, data, os_fault, trace);
}

} // namespace compresso

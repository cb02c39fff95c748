#include "core/lcp_controller.h"

#include <algorithm>
#include <cassert>

#include "prof/profiler.h"

namespace compresso {

namespace {

constexpr Addr kMetadataRegionBase = Addr(1) << 41;

/** Exception pointers that fit the 64 B LCP metadata entry. */
constexpr uint32_t kMaxExceptionPtrs = 17;

} // namespace

LcpController::LcpController(const LcpConfig &cfg)
    : CompressedController({.installed_bytes = cfg.installed_bytes,
                            .mdcache = cfg.mdcache,
                            .metadata_base = kMetadataRegionBase,
                            .md_hit_latency = cfg.mdcache_hit_latency,
                            .stream_buffer_blocks =
                                cfg.stream_buffer ? cfg.stream_buffer_blocks
                                                  : 0}),
      cfg_(cfg),
      bins_(cfg.alignment_friendly ? &compressoBins() : &legacyBins()),
      codec_(makeCompressor(cfg.compressor))
{
    assert(codec_ && "unknown compressor name");
    stats_.stat("prefetch_hits"); // exported even with no stream buffer
}

uint32_t
LcpController::excCapacity(const LcpPage &p) const
{
    uint32_t slots_end = uint32_t(kLinesPerPage) * p.target;
    uint32_t alloc = allocBytes(p);
    if (alloc <= slots_end)
        return 0;
    // The metadata entry holds a bounded list of exception pointers;
    // beyond it, an overflow is a page fault (OS relayout).
    return std::min<uint32_t>((alloc - slots_end) / uint32_t(kLineBytes),
                              kMaxExceptionPtrs);
}

LcpController::Encoded
LcpController::encodeLine(const Line &data) const
{
    Encoded enc;
    enc.zero = isZeroLine(data);
    BitWriter w;
    codec_->compress(data, w);
    enc.bytes = w.bytes();
    return enc;
}

void
LcpController::readStored(const LcpPage &p, LineIdx idx, Line &out) const
{
    if (!p.valid || p.zero || p.zero_line[idx]) {
        out.fill(0);
        return;
    }
    if (p.exc_slot[idx] != 0xff) {
        loadBytes(p, excOffset(p, p.exc_slot[idx]), out.data(), kLineBytes);
        return;
    }
    if (p.target == kLineBytes) {
        loadBytes(p, slotOffset(p, idx), out.data(), kLineBytes);
        return;
    }
    uint8_t buf[kLineBytes];
    loadBytes(p, slotOffset(p, idx), buf, p.target);
    BitReader r(buf, size_t(p.target) * 8);
    bool ok = codec_->decompress(r, out);
    assert(ok && "corrupt LCP slot");
    (void)ok;
}

void
LcpController::initialAllocate(LcpPage &p, const Encoded &enc)
{
    // Smallest candidate target that fits this first line.
    uint16_t target = uint16_t(kLineBytes);
    for (unsigned b = 1; b < bins_->count(); ++b) {
        if (enc.bytes.size() <= bins_->binSize(b)) {
            target = bins_->binSize(b);
            break;
        }
    }
    p.target = target;
    // The OS sizes the page for its compressed footprint; the
    // exception region is whatever slack the 4 page-size bins leave
    // (pages at exactly a bin boundary have none, and overflow into a
    // page fault).
    uint32_t want = uint32_t(kLinesPerPage) * target;
    uint32_t alloc = pageBinBytes(std::min<uint32_t>(want, kPageBytes),
                                  PageSizing::kVariable4);
    resizeAlloc(p, unsigned(alloc / kChunkBytes));
    p.zero = false;
    p.zero_line.set(); // all lines are zero until written
}

void
LcpController::writeStored(PageNum pn, LcpPage &p, LineIdx idx,
                           const Line &raw, const Encoded &enc,
                           McTrace &trace)
{
    // Caller guarantees the line fits its slot.
    uint32_t off = slotOffset(p, idx);
    if (p.target == kLineBytes) {
        deviceOps(p, off, kLineBytes, true, false, trace);
        storeBytes(p, off, raw.data(), kLineBytes);
        return;
    }
    size_t len = std::max<size_t>(enc.bytes.size(), 1);
    noteSplit(st_split_wb_lines_, pn,
              deviceOps(p, off, len, true, false, trace));
    storeBytes(p, off, enc.bytes.data(), enc.bytes.size());
}

void
LcpController::pageOverflow(PageNum pn, LcpPage &p, LineIdx idx,
                            const Line &raw, const Encoded &enc,
                            McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcOverflow);
    // Re-layout admission: repeated overflows of one page are the
    // unbounded-stall shape the watchdog bounds. When the relocation
    // budget is blown, the OS re-lays the page out uncompressed (the
    // OS-aware safe state) so it cannot overflow again.
    bool escalate_raw = false;
    if (pressure_ != nullptr) {
        uint64_t est = 2ull * (allocBytes(p) / kLineBytes +
                               uint64_t(kLinesPerPage));
        if (!pressure_->admitOp(PressureOp::kRelocation, est)) {
            escalate_raw = true;
            ++st_overflow_escalations_;
            CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, pn,
                          uint32_t(PressureOp::kRelocation));
        }
    }
    ++st_page_overflows_;
    CPR_OBS_EVENT(obs_, ObsEvent::kPageOverflow, pn, 0);
    CPR_OBS_EVENT(obs_, ObsEvent::kPageFault, pn,
                  uint32_t(cfg_.page_fault_cycles));
    // OS-aware: the overflow raises a page fault; the core stalls.
    osFaultStall(trace);
    // Governor-denied relocations still relocate (to the raw layout);
    // their traffic is charged to the pressure component.
    AttribComp relayout_comp = escalate_raw
                                   ? AttribComp::kPressureStall
                                   : AttribComp::kOverflowRelayout;

    // Gather all current data. The triggering line is taken from the
    // incoming write, not its slot: the caller already flipped its
    // zero/actual-bytes bookkeeping, and its stored slot may hold a
    // stale (undecodable) image.
    std::array<Line, kLinesPerPage> buf;
    for (LineIdx i = 0; i < kLinesPerPage; ++i) {
        if (i != idx)
            readStored(p, i, buf[i]);
    }
    buf[idx] = raw;
    p.zero_line[idx] = false;
    p.actual_bytes[idx] = uint16_t(enc.bytes.size());

    uint32_t old_used = allocBytes(p);
    st_overflow_move_ops_ += old_used / kLineBytes;
    deviceOps(p, 0, old_used, false, false, trace, relayout_comp);

    // Re-layout with the best target for the actual sizes.
    std::array<LineSize, kLinesPerPage> sizes;
    for (LineIdx i = 0; i < kLinesPerPage; ++i) {
        sizes[i].bytes = p.actual_bytes[i];
        sizes[i].zero = p.zero_line[i];
    }
    LcpLayout layout = lcpPack(sizes, *bins_);
    // Raw 64 B slots hold anything; a layout that would exceed 4 KB
    // falls back to the uncompressed-page layout.
    if (escalate_raw || layout.payload_bytes > kPageBytes) {
        layout.target_bytes = uint16_t(kLineBytes);
        layout.exception.fill(false);
        layout.exception_count = 0;
        layout.payload_bytes = uint32_t(kPageBytes);
    }

    p.target = layout.target_bytes;
    uint32_t want = uint32_t(kLinesPerPage) * p.target +
                    layout.exception_count * uint32_t(kLineBytes);
    uint32_t alloc = pageBinBytes(std::min<uint32_t>(want, kPageBytes),
                                  PageSizing::kVariable4);
    resizeAlloc(p, unsigned(alloc / kChunkBytes));

    p.exc_slot.fill(0xff);
    p.exc_map.reset();
    uint8_t next_exc = 0;
    for (LineIdx i = 0; i < kLinesPerPage; ++i) {
        if (p.zero_line[i])
            continue;
        if (layout.exception[i] && p.target != kLineBytes) {
            p.exc_slot[i] = next_exc;
            p.exc_map.set(next_exc);
            ++next_exc;
            storeBytes(p, excOffset(p, p.exc_slot[i]), buf[i].data(),
                       kLineBytes);
        } else if (p.target == kLineBytes) {
            storeBytes(p, slotOffset(p, i), buf[i].data(), kLineBytes);
        } else {
            BitWriter w;
            codec_->compress(buf[i], w);
            storeBytes(p, slotOffset(p, i), w.bytes().data(),
                       w.bytes().size());
        }
    }
    uint32_t new_used = uint32_t(kLinesPerPage) * p.target +
                        uint32_t(next_exc) * uint32_t(kLineBytes);
    st_overflow_move_ops_ += (new_used + kLineBytes - 1) / kLineBytes;
    deviceOps(p, 0, new_used, true, false, trace, relayout_comp);
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kRelocation,
                            uint64_t(old_used / kLineBytes) +
                                (new_used + kLineBytes - 1) / kLineBytes);
}

void
LcpController::osFaultStall(McTrace &trace)
{
    ++st_page_faults_;
    st_page_fault_cycles_ += cfg_.page_fault_cycles;
    trace.addStall(AttribComp::kOsFault, cfg_.page_fault_cycles);
}

void
LcpController::relayoutRaw(PageNum pn, LcpPage &p, McTrace &trace)
{
    (void)pn;
    std::array<Line, kLinesPerPage> buf;
    for (LineIdx i = 0; i < kLinesPerPage; ++i)
        readStored(p, i, buf[i]);
    deviceOps(p, 0, allocBytes(p), false, false, trace,
              AttribComp::kFaultRecovery);
    resizeAlloc(p, unsigned(kChunksPerPage));
    p.target = uint16_t(kLineBytes);
    p.exc_slot.fill(0xff);
    p.exc_map.reset();
    for (LineIdx i = 0; i < kLinesPerPage; ++i) {
        if (!p.zero_line[i])
            storeBytes(p, slotOffset(p, i), buf[i].data(), kLineBytes);
    }
    deviceOps(p, 0, kPageBytes, true, false, trace,
              AttribComp::kFaultRecovery);
}

void
LcpController::fillLine(Addr addr, Line &data, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcFill);
    PageNum pn = pageOf(addr);
    LineIdx idx = lineOf(addr);
    OpScope op(*this, pn, trace);
    ++st_fills_;

    LcpPage &p = pages_[pn];
    mdAccess(pn, false, trace);

    if (servePoisoned(pn, addr, data))
        return;

    if (!p.valid || p.zero || p.zero_line[idx]) {
        data.fill(0);
        ++st_zero_fills_;
        return;
    }

    // Speculative slot access in parallel with metadata (the TLB knows
    // the target size in the OS-aware design).
    trace.speculative_parallel = cfg_.speculative_access;
    uint32_t off = slotOffset(p, idx);
    unsigned blocks = deviceOps(p, off, p.target, false, true, trace);
    noteSplit(st_split_fill_lines_, pn, blocks);

    if (p.exc_slot[idx] != 0xff) {
        // Speculation failed: serialized exception access.
        ++st_exception_accesses_;
        st_exception_extra_ops_ += blocks; // the wasted slot read
        uint32_t exc = excOffset(p, p.exc_slot[idx]);
        deviceOps(p, exc, kLineBytes, false, true, trace,
                  AttribComp::kDeviceExtra);
        if (dataFaultPoisoned(addr, p, exc, kLineBytes, data, trace))
            return;
        loadBytes(p, exc, data.data(), kLineBytes);
        return;
    }

    if (dataFaultPoisoned(addr, p, off, p.target, data, trace))
        return;
    readStored(p, idx, data);
    if (p.target != kLineBytes)
        trace.addFixed(AttribComp::kDecompress, cfg_.compression_latency);

    // Free prefetch: slot-mates that arrived whole in the same bursts.
    if (p.target < kLineBytes) {
        uint32_t blk_lo = (off / kLineBytes) * uint32_t(kLineBytes);
        uint32_t blk_hi = uint32_t(roundUp(off + p.target, kLineBytes));
        LineIdx first = LineIdx(blk_lo / p.target +
                                (blk_lo % p.target ? 1 : 0));
        for (LineIdx j = first; j < kLinesPerPage; ++j) {
            uint32_t lo = j * uint32_t(p.target);
            if (lo + p.target > blk_hi)
                break;
            if (j == idx || p.zero_line[j] || p.exc_slot[j] != 0xff)
                continue;
            if (trace.co_fetched.size() < 8) {
                trace.co_fetched.push_back(pn * kPageBytes +
                                           Addr(j) * kLineBytes);
            }
        }
        st_co_fetched_lines_ += trace.co_fetched.size();
    }
}

void
LcpController::writebackLine(Addr addr, const Line &data, McTrace &trace)
{
    CPR_PROF_SCOPE(ProfPhase::kMcWriteback);
    PageNum pn = pageOf(addr);
    LineIdx idx = lineOf(addr);
    OpScope op(*this, pn, trace);
    ++st_writebacks_;

    LcpPage &p = pages_[pn];
    mdAccess(pn, true, trace);

    if (dropPoisonedWriteback(pn, addr))
        return;

    Encoded enc = encodeLine(data);
    CPR_OBS_HIST(h_line_bytes_, enc.zero ? 0 : enc.bytes.size());

    if (!p.valid) {
        p.valid = true;
        p.zero = true;
        ++st_pages_touched_;
    }

    if (p.zero) {
        if (enc.zero) {
            ++st_zero_wbs_;
            return;
        }
        initialAllocate(p, enc);
    }

    trace.addFixed(AttribComp::kCompress, cfg_.compression_latency);
    p.actual_bytes[idx] = uint16_t(enc.bytes.size());

    if (enc.zero) {
        // Zero-line shortcut: metadata only; release any exception slot.
        if (p.exc_slot[idx] != 0xff) {
            p.exc_map.reset(p.exc_slot[idx]);
            p.exc_slot[idx] = 0xff;
        }
        p.zero_line[idx] = true;
        ++st_zero_wbs_;
        return;
    }
    p.zero_line[idx] = false;

    bool fits = p.target == kLineBytes || enc.bytes.size() <= p.target;
    if (fits) {
        if (p.exc_slot[idx] != 0xff) {
            p.exc_map.reset(p.exc_slot[idx]);
            p.exc_slot[idx] = 0xff; // back into its slot
        }
        writeStored(pn, p, idx, data, enc, trace);
        return;
    }

    ++st_line_overflows_;
    CPR_OBS_EVENT(obs_, ObsEvent::kLineOverflow, pn, idx);
    if (p.exc_slot[idx] != 0xff) {
        // Already an exception: overwrite in place.
        uint32_t off = excOffset(p, p.exc_slot[idx]);
        deviceOps(p, off, kLineBytes, true, false, trace);
        storeBytes(p, off, data.data(), kLineBytes);
        return;
    }
    unsigned cap = excCapacity(p);
    unsigned free_slot = cap;
    for (unsigned s = 0; s < cap; ++s) {
        if (!p.exc_map[s]) {
            free_slot = s;
            break;
        }
    }
    if (free_slot < cap) {
        p.exc_slot[idx] = uint8_t(free_slot);
        p.exc_map.set(free_slot);
        uint32_t off = excOffset(p, p.exc_slot[idx]);
        deviceOps(p, off, kLineBytes, true, false, trace,
                  AttribComp::kOverflowRelayout);
        storeBytes(p, off, data.data(), kLineBytes);
        ++st_ir_placements_;
        return;
    }

    pageOverflow(pn, p, idx, data, enc, trace);
}

} // namespace compresso

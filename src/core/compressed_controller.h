/**
 * @file
 * The skeleton the four compressed controllers share (Compresso, LCP,
 * RMC, DMC).
 *
 * The paper's comparison (Tab. V) is fair because every design runs on
 * the same substrate: 512 B machine chunks, a metadata cache in front
 * of a dedicated metadata region, and the same line compressors. Only
 * the page layout and the overflow policy differ. This class owns the
 * substrate and everything the designs do identically:
 *
 *  - the chunk store: per-page chunk lists, the scatter hash from
 *    chunk to MPA, byte load/store and 64 B device-op generation
 *    (with the optional device-side stream buffer);
 *  - allocation, including the machine-OOM rescue through the
 *    pressure listener and one retry;
 *  - the metadata cache: lookups, the dirty-entry writeback on
 *    eviction, and the metadata-region addresses;
 *  - the fault ladder: data DUEs poison the line; metadata DUEs are
 *    admitted, rebuilt, escalated to the raw layout and scrubbed;
 *  - the busy-page stack that keeps emergency reclaim off pages live
 *    on the call stack;
 *  - accounting (footprint, MPA use, page free, chunk-map audit) and
 *    the fault, pressure and observer wiring.
 *
 * A design supplies its page struct (which must expose `valid`, `zero`,
 * `chunks` and `mpfn`), its demand paths, and the ladder hooks below.
 * The per-block helpers are non-virtual and inline; designs are only
 * dispatched per fault, per eviction and per page free.
 */

#ifndef COMPRESSO_CORE_COMPRESSED_CONTROLLER_H
#define COMPRESSO_CORE_COMPRESSED_CONTROLLER_H

#include <algorithm>
#include <array>
#include <cassert>
#include <deque>
#include <unordered_map>

#include "check/invariant_auditor.h"
#include "core/chunk_allocator.h"
#include "core/memory_controller.h"
#include "core/pressure_hooks.h"
#include "fault/fault_hooks.h"
#include "meta/metadata_cache.h"
#include "obs/observer.h"

namespace compresso {

/** Fixed facts about a design that the shared skeleton needs. */
struct Substrate
{
    uint64_t installed_bytes = 0; ///< data-chunk arena
    MetadataCacheConfig mdcache;
    Addr metadata_base = 0; ///< MPA base of the metadata region
    Cycle md_hit_latency = 2;
    /** Attribution of metadata-cache hit latency and of metadata
     *  fetch/writeback traffic (RMC charges both to its BST walk). */
    AttribComp md_hit_comp = AttribComp::kMdcacheHit;
    AttribComp md_miss_comp = AttribComp::kMdcacheMiss;
    /** Device-side stream buffer depth in 64 B blocks; 0 = none. */
    unsigned stream_buffer_blocks = 0;
    /** A rebuild the governor denies still rewrites the entry (every
     *  design but Compresso, which skips the whole rebuild). */
    bool rewrite_denied_rebuild = true;
};

template <class Page>
class CompressedController : public MemoryController
{
  public:
    uint64_t ospaBytes() const override { return validPages() * kPageBytes; }
    uint64_t mpaDataBytes() const override { return chunks_.usedBytes(); }
    uint64_t
    mpaMetadataBytes() const override
    {
        return validPages() * kMetadataEntryBytes;
    }

    /** Balloon release (Sec. V-B): drop the page's chunks, entry,
     *  poison and rebuild history. */
    void freePage(PageNum pn) override;

    /** Exposed reads are ECC-adjudicated; detected-uncorrectable
     *  faults walk the degradation ladder. */
    void attachFaultInjector(FaultInjector *fi) override { fault_.attach(fi); }

    /** Events and histograms go through @p obs (null detaches); the
     *  metadata cache reports through it too. */
    void attachObserver(Observer *obs) override;

    /** OOM rescue, admission of pressure-sensitive operations and
     *  their stall cost (core/pressure_hooks.h). */
    void attachPressureListener(PressureListener *pl) override
    {
        pressure_ = pl;
    }

    /** Machine bytes backing @p pn: allocated chunks times 512 B. */
    uint64_t
    pageCompressedBytes(PageNum pn) const override
    {
        auto it = pages_.find(pn);
        if (it == pages_.end() || !it->second.valid)
            return 0;
        return uint64_t(it->second.chunks) * kChunkBytes;
    }

    /** Pages with a live reference on the controller's call stack
     *  (the operation's page, plus a repack or migration it nests);
     *  emergency reclaim must not free them. */
    bool
    pageBusy(PageNum pn) const override
    {
        for (unsigned i = 0; i < busy_depth_ && i < kBusyDepth; ++i)
            if (busy_pages_[i] == pn)
                return true;
        return false;
    }

    /** Chunk-map audit (src/check): every valid page's chunks live and
     *  exclusively owned, the free list complementary. */
    AuditReport
    audit() const override
    {
        return InvariantAuditor::auditChunkMap(pages_, chunks_);
    }

    StatGroup &stats() override { return stats_; }
    const StatGroup &stats() const override { return stats_; }

    MetadataCache &metadataCache() { return mdcache_; }

  protected:
    explicit CompressedController(const Substrate &sub);

    // --- ladder hooks: what each design's degradation ladder needs ---
    /** OS-visible designs trap a metadata fault to the OS: charge the
     *  page-fault stall. Transparent designs charge nothing. */
    virtual void osFaultStall(McTrace &trace) { (void)trace; }
    /** Bytes the hardware re-walks to rebuild @p p's entry (0: the
     *  entry is rebuilt from OS structures). Only called on pages that
     *  hold storage. */
    virtual uint32_t
    rebuildWalkBytes(const Page &p) const
    {
        (void)p;
        return 0;
    }
    /** Device-op estimate the rebuild is admitted with. */
    virtual uint64_t
    rebuildEstimate(const Page &p, uint32_t walk) const
    {
        (void)p;
        return 1 + (walk + kLineBytes - 1) / kLineBytes;
    }
    /** True if @p p already uses the raw layout (escalation target). */
    virtual bool pageRaw(const Page &p) const = 0;
    /** Re-lay @p p out raw, so lookups stop depending on its entry. */
    virtual void relayoutRaw(PageNum pn, Page &p, McTrace &trace) = 0;

    // --- other per-design hooks ---
    /** A metadata-cache entry was evicted (after its writeback). */
    virtual void onMetaEvict(PageNum pn) { (void)pn; }
    /** A page was released by freePage(). */
    virtual void onPageFreed(PageNum pn) { (void)pn; }

    // --- chunk store ---
    Addr mpaOf(const Page &p, uint32_t off) const;
    void storeBytes(const Page &p, uint32_t off, const uint8_t *src,
                    size_t len);
    void loadBytes(const Page &p, uint32_t off, uint8_t *dst,
                   size_t len) const;
    /** Enqueue the device ops covering bytes [off, off+len) of a page;
     *  returns the number of 64 B blocks touched. Ops are attributed
     *  to @p comp; the blocks of a critical read beyond the first are
     *  retagged device_extra (split-access cost, DESIGN.md §15). */
    unsigned deviceOps(const Page &p, uint32_t off, size_t len, bool write,
                       bool critical, McTrace &trace,
                       AttribComp comp = AttribComp::kDeviceData);
    /** Grow/shrink @p p's chunk list to @p target chunks. Returns
     *  false if machine memory is exhausted (after the OOM rescue). */
    bool resizeAlloc(Page &p, unsigned target);
    static uint32_t
    allocBytes(const Page &p)
    {
        return uint32_t(p.chunks) * uint32_t(kChunkBytes);
    }

    // --- metadata ---
    Addr
    metadataAddr(PageNum pn) const
    {
        return sub_.metadata_base + pn * kMetadataEntryBytes;
    }
    /** Look @p pn's entry up in the metadata cache (@p half: the
     *  first half of the entry suffices, Sec. IV-B5); a miss fetches
     *  it, and a detected fault on the fetch walks the ladder. */
    void mdAccess(PageNum pn, bool dirty, McTrace &trace, bool half = false);
    /** Counter @p key through the cached @p handle, creating it on
     *  first use: md_write_ops and prefetch_hits only exist once
     *  bumped, unless a design registers them in its constructor. */
    uint64_t &
    lazyStat(uint64_t *&handle, const char *key)
    {
        if (handle == nullptr)
            handle = &stats_.stat(key);
        return *handle;
    }
    uint64_t &
    mdWriteOps()
    {
        return lazyStat(st_md_write_ops_, "md_write_ops");
    }

    // --- fault ladder ---
    /** Detected-uncorrectable metadata fault on @p pn: admit and
     *  rebuild the entry; after max_meta_rebuilds (or a denied
     *  rebuild) escalate to the raw layout; scrub and report the
     *  cost. Without recovery, retire (poison) the page. */
    void recoverMetadataFault(PageNum pn, McTrace &trace);
    /** Data DUE on a demand fill: poison the OSPA line and charge the
     *  retry read plus the poison-pattern rewrite (which scrubs). */
    void poisonDataFault(Addr ospa_line, const Page &p, uint32_t off,
                         size_t len, McTrace &trace);
    /** After a demand read of [off, off+len): if it took a DUE, poison
     *  the line, zero @p data and return true. */
    bool
    dataFaultPoisoned(Addr addr, const Page &p, uint32_t off, size_t len,
                      Line &data, McTrace &trace)
    {
        if (fault_.takePending() != FaultOutcome::kDetected)
            return false;
        poisonDataFault(lineAddr(addr), p, off, len, trace);
        data.fill(0);
        return true;
    }
    /** A fill of a line or page the ladder retired: serve zeros. */
    bool
    servePoisoned(PageNum pn, Addr addr, Line &data)
    {
        if (!fault_.active() || !(fault_.pagePoisoned(pn) ||
                                  fault_.linePoisoned(lineAddr(addr))))
            return false;
        data.fill(0);
        ++st_fault_poison_fills_;
        return true;
    }
    /** A writeback to a retired page is dropped (the OS must remap it
     *  first); any other writeback heals its line's poison. */
    bool
    dropPoisonedWriteback(PageNum pn, Addr addr)
    {
        if (!fault_.active())
            return false;
        if (fault_.pagePoisoned(pn)) {
            ++st_fault_dropped_wbs_;
            return true;
        }
        fault_.clearLinePoison(lineAddr(addr));
        return false;
    }

    /** Count a split access of @p blocks 64 B blocks. */
    void
    noteSplit(uint64_t &lines_stat, PageNum pn, unsigned blocks)
    {
        if (blocks <= 1)
            return;
        ++lines_stat;
        st_split_extra_ops_ += blocks - 1;
        CPR_OBS_EVENT(obs_, ObsEvent::kSplitAccess, pn, blocks);
    }

    // --- busy pages ---
    /** Nesting bound of the busy-page stack: writeback -> metadata
     *  eviction repack -> fault recovery is the deepest real chain. */
    static constexpr unsigned kBusyDepth = 4;

    /** RAII busy-page marker for work that can reach an allocation
     *  (and therefore an OOM-rescue reclaim). */
    class BusyScope
    {
      public:
        BusyScope(CompressedController &mc, PageNum page) : mc_(mc)
        {
            if (mc_.busy_depth_ < kBusyDepth)
                mc_.busy_pages_[mc_.busy_depth_] = page;
            ++mc_.busy_depth_;
        }
        ~BusyScope() { --mc_.busy_depth_; }
        BusyScope(const BusyScope &) = delete;
        BusyScope &operator=(const BusyScope &) = delete;

      private:
        CompressedController &mc_;
    };

    /** One demand operation: its page is busy and its trace receives
     *  the metadata-cache eviction traffic, for the scope's extent. */
    class OpScope : BusyScope
    {
      public:
        OpScope(CompressedController &mc, PageNum page, McTrace &trace)
            : BusyScope(mc, page), mc_(mc), prev_(mc.cur_trace_)
        {
            mc_.cur_trace_ = &trace;
        }
        ~OpScope() { mc_.cur_trace_ = prev_; }

      private:
        CompressedController &mc_;
        McTrace *prev_;
    };

    Substrate sub_;
    ChunkAllocator chunks_;
    MetadataCache mdcache_;
    std::unordered_map<PageNum, Page> pages_;
    McTrace *cur_trace_ = nullptr; ///< active trace for evict hooks

    FaultHooks fault_;
    /** Metadata rebuilds taken per page (escalation bound). */
    std::unordered_map<PageNum, unsigned> meta_rebuilds_;
    PressureListener *pressure_ = nullptr;

    StatGroup stats_{"mc"};
    // Cached hot-path counter handles (stable across reset()).
    uint64_t &st_fills_ = stats_.stat("fills");
    uint64_t &st_writebacks_ = stats_.stat("writebacks");
    uint64_t &st_zero_fills_ = stats_.stat("zero_fills");
    uint64_t &st_zero_wbs_ = stats_.stat("zero_wbs");
    uint64_t &st_data_read_ops_ = stats_.stat("data_read_ops");
    uint64_t &st_data_write_ops_ = stats_.stat("data_write_ops");
    uint64_t &st_md_read_ops_ = stats_.stat("md_read_ops");
    uint64_t &st_split_fill_lines_ = stats_.stat("split_fill_lines");
    uint64_t &st_split_extra_ops_ = stats_.stat("split_extra_ops");
    uint64_t &st_fault_poison_fills_ = stats_.stat("fault_poison_fills");
    uint64_t &st_fault_dropped_wbs_ = stats_.stat("fault_dropped_wbs");
    uint64_t &st_line_overflows_ = stats_.stat("line_overflows");
    uint64_t &st_oom_rescues_ = stats_.stat("oom_rescues");

    // Observability (src/obs): null when disabled.
    Observer *obs_ = nullptr;
    Histogram *h_line_bytes_ = nullptr; ///< compressed writeback size

  private:
    uint64_t validPages() const;
    bool streamBufferHit(Addr block) const;
    void streamBufferInsert(Addr block);
    void streamBufferInvalidate(Addr block);

    std::deque<Addr> stream_buf_;
    std::array<PageNum, kBusyDepth> busy_pages_{};
    unsigned busy_depth_ = 0;
    uint64_t *st_md_write_ops_ = nullptr;
    uint64_t *st_prefetch_hits_ = nullptr;
};

// ---------------------------------------------------------------------
// Construction and wiring
// ---------------------------------------------------------------------

template <class Page>
CompressedController<Page>::CompressedController(const Substrate &sub)
    : sub_(sub), chunks_(sub.installed_bytes), mdcache_(sub.mdcache)
{
    mdcache_.setEvictHook([this](PageNum pn, bool dirty) {
        if (dirty && cur_trace_ != nullptr) {
            cur_trace_->add(metadataAddr(pn), true, false,
                            sub_.md_miss_comp);
            ++mdWriteOps();
            fault_.onWrite(metadataAddr(pn));
        }
        onMetaEvict(pn);
    });
}

template <class Page>
void
CompressedController<Page>::attachObserver(Observer *obs)
{
    obs_ = obs;
    mdcache_.attachObserver(obs);
    h_line_bytes_ =
        obs != nullptr ? obs->histogram("mc.compressed_line_bytes") : nullptr;
}

// ---------------------------------------------------------------------
// Chunk store
// ---------------------------------------------------------------------

template <class Page>
Addr
CompressedController<Page>::mpaOf(const Page &p, uint32_t off) const
{
    unsigned ci = off / kChunkBytes;
    assert(ci < p.chunks);
    // Scatter chunks across the physical space (bijective odd-multiplier
    // hash mod 2^26): free-list allocation does not hand out DRAM-row-
    // adjacent chunks in a long-running system, and modeling it as if
    // it did would overstate compressed row-buffer locality.
    Addr c = p.mpfn[ci];
    Addr scattered =
        ((c >> 3) * 0x9e3779b1ULL * 8 + (c & 7)) & ((1u << 26) - 1);
    return scattered * kChunkBytes + off % kChunkBytes;
}

template <class Page>
void
CompressedController<Page>::storeBytes(const Page &p, uint32_t off,
                                       const uint8_t *src, size_t len)
{
    while (len > 0) {
        unsigned ci = off / kChunkBytes;
        unsigned co = off % kChunkBytes;
        size_t n = std::min(len, kChunkBytes - co);
        assert(ci < p.chunks && p.mpfn[ci] != kNoChunk);
        std::copy(src, src + n, chunks_.data(p.mpfn[ci]).begin() + co);
        src += n;
        off += uint32_t(n);
        len -= n;
    }
}

template <class Page>
void
CompressedController<Page>::loadBytes(const Page &p, uint32_t off,
                                      uint8_t *dst, size_t len) const
{
    while (len > 0) {
        unsigned ci = off / kChunkBytes;
        unsigned co = off % kChunkBytes;
        size_t n = std::min(len, kChunkBytes - co);
        assert(ci < p.chunks && p.mpfn[ci] != kNoChunk);
        const auto &chunk = chunks_.data(p.mpfn[ci]);
        std::copy(chunk.begin() + co, chunk.begin() + co + n, dst);
        dst += n;
        off += uint32_t(n);
        len -= n;
    }
}

template <class Page>
unsigned
CompressedController<Page>::deviceOps(const Page &p, uint32_t off,
                                      size_t len, bool write, bool critical,
                                      McTrace &trace, AttribComp comp)
{
    if (len == 0)
        return 0;
    bool stream = sub_.stream_buffer_blocks > 0;
    unsigned first = off / kLineBytes;
    unsigned last = unsigned((off + len - 1) / kLineBytes);
    unsigned issued = 0;
    for (unsigned b = first; b <= last; ++b) {
        Addr block = mpaOf(p, b * uint32_t(kLineBytes));
        // Split-access attribution: the first issued block of a
        // critical access carries the caller's component; the rest are
        // the split penalty.
        AttribComp op_comp =
            critical && issued > 0 ? AttribComp::kDeviceExtra : comp;
        if (write) {
            if (stream)
                streamBufferInvalidate(block);
            trace.add(block, true, critical, op_comp);
            ++st_data_write_ops_;
            fault_.onWrite(block);
            ++issued;
        } else {
            if (critical && stream && streamBufferHit(block)) {
                ++lazyStat(st_prefetch_hits_, "prefetch_hits");
                continue;
            }
            trace.add(block, false, critical, op_comp);
            ++st_data_read_ops_;
            // Only demand-critical reads are architecturally exposed
            // to stored faults; background traffic rewrites blocks.
            if (critical)
                fault_.onCriticalRead(block);
            if (critical && stream)
                streamBufferInsert(block);
            ++issued;
        }
    }
    return last - first + 1;
}

template <class Page>
bool
CompressedController<Page>::resizeAlloc(Page &p, unsigned target)
{
    assert(target <= kChunksPerPage);
    while (p.chunks < target) {
        ChunkNum c = chunks_.allocate();
        if (c == kNoChunk && pressure_ != nullptr &&
            busy_depth_ <= kBusyDepth) {
            // Machine OOM: ask the governor for emergency ballooning
            // (most-compressible cold pages first) and retry once. The
            // busy-page stack keeps the reclaim away from every page
            // live on this call stack; the rescue is charged to the
            // page of the operation in flight.
            PageNum busy = busy_depth_ > 0 ? busy_pages_[0] : kNoPage;
            if (pressure_->onMachineOom(busy)) {
                c = chunks_.allocate();
                if (c != kNoChunk) {
                    ++st_oom_rescues_;
                    CPR_OBS_EVENT(obs_, ObsEvent::kOomRescue, busy, 1);
                }
            }
        }
        if (c == kNoChunk) {
            ++stats_["machine_oom"];
            return false;
        }
        p.mpfn[p.chunks++] = uint32_t(c);
    }
    while (p.chunks > target) {
        --p.chunks;
        chunks_.release(p.mpfn[p.chunks]);
        p.mpfn[p.chunks] = kNoChunk;
    }
    return true;
}

// ---------------------------------------------------------------------
// Stream buffer (free prefetch, Sec. VII-A)
// ---------------------------------------------------------------------

template <class Page>
bool
CompressedController<Page>::streamBufferHit(Addr block) const
{
    return std::find(stream_buf_.begin(), stream_buf_.end(), block) !=
           stream_buf_.end();
}

template <class Page>
void
CompressedController<Page>::streamBufferInsert(Addr block)
{
    stream_buf_.push_back(block);
    while (stream_buf_.size() > sub_.stream_buffer_blocks)
        stream_buf_.pop_front();
}

template <class Page>
void
CompressedController<Page>::streamBufferInvalidate(Addr block)
{
    auto it = std::find(stream_buf_.begin(), stream_buf_.end(), block);
    if (it != stream_buf_.end())
        stream_buf_.erase(it);
}

// ---------------------------------------------------------------------
// Metadata cache
// ---------------------------------------------------------------------

template <class Page>
void
CompressedController<Page>::mdAccess(PageNum pn, bool dirty, McTrace &trace,
                                     bool half)
{
    bool hit = mdcache_.access(pn, half, dirty);
    trace.metadata_hit = hit;
    trace.addFixed(sub_.md_hit_comp, sub_.md_hit_latency);
    if (!hit) {
        // Fetch the entry from the metadata region (critical).
        trace.add(metadataAddr(pn), false, true, sub_.md_miss_comp);
        ++st_md_read_ops_;
        if (fault_.active() &&
            fault_.onMetaRead(metadataAddr(pn)) == FaultOutcome::kDetected)
            recoverMetadataFault(pn, trace);
    }
}

// ---------------------------------------------------------------------
// Fault ladder (correct -> rebuild -> raw layout -> poison;
// fault/fault_injector.h)
// ---------------------------------------------------------------------

template <class Page>
void
CompressedController<Page>::recoverMetadataFault(PageNum pn, McTrace &trace)
{
    Page &p = pages_[pn];
    FaultInjector *fi = fault_.injector();

    if (!fault_.recoveryEnabled()) {
        // The OSPA->MPA mapping for the whole page is unreliable and
        // nothing rebuilds it: retire the page.
        if (p.valid && !fault_.pagePoisoned(pn)) {
            fault_.poisonPage(pn);
            ++stats_["fault_pages_poisoned"];
            CPR_OBS_EVENT(obs_, ObsEvent::kFaultRecovery, pn,
                          uint32_t(FaultRung::kPagePoison));
        }
        fi->scrub(metadataAddr(pn));
        return;
    }

    BusyScope busy(*this, pn);
    size_t before = trace.ops.size();
    uint32_t walk =
        p.valid && !p.zero && p.chunks > 0 ? rebuildWalkBytes(p) : 0;
    // A blown rebuild budget (watchdog breach) means this entry's
    // re-walks are what is stalling the machine: skip the rebuild and
    // take the raw-layout rung directly.
    bool admitted =
        pressure_ == nullptr ||
        pressure_->admitOp(PressureOp::kMetaRebuild,
                           rebuildEstimate(p, walk));
    if (admitted) {
        ++stats_["fault_meta_rebuilds"];
        CPR_OBS_EVENT(obs_, ObsEvent::kFaultRecovery, pn,
                      uint32_t(FaultRung::kMetaRebuild));
        fi->noteMetaRebuild();
    } else {
        ++stats_["fault_rebuilds_throttled"];
        CPR_OBS_EVENT(obs_, ObsEvent::kOpThrottled, pn,
                      uint32_t(PressureOp::kMetaRebuild));
    }
    osFaultStall(trace);
    if (admitted || sub_.rewrite_denied_rebuild) {
        // Rebuild the entry (re-walking the stored bytes if the design
        // does that in hardware) and rewrite it. Repair traffic is
        // suppressed so it cannot fault recursively.
        FaultHooks::SuppressScope guard(fault_);
        if (admitted)
            deviceOps(p, 0, walk, false, false, trace,
                      AttribComp::kFaultRecovery);
        trace.add(metadataAddr(pn), true, false, AttribComp::kFaultRecovery);
        ++mdWriteOps();
    }
    fi->scrub(metadataAddr(pn));
    unsigned max_rebuilds = fi->config().max_meta_rebuilds;
    unsigned rebuilds = admitted ? ++meta_rebuilds_[pn]
                                 : (meta_rebuilds_[pn] = max_rebuilds + 1);
    if (rebuilds > max_rebuilds && p.valid && !p.zero && !pageRaw(p)) {
        // This entry keeps taking hits; stop depending on its fragile
        // layout fields by escalating to the safe state: the raw
        // layout, where every line sits at its identity offset.
        ++stats_["fault_pages_inflated"];
        CPR_OBS_EVENT(obs_, ObsEvent::kFaultRecovery, pn,
                      uint32_t(FaultRung::kInflateSafety));
        fi->notePageInflatedSafety();
        FaultHooks::SuppressScope guard(fault_);
        relayoutRaw(pn, p, trace);
        meta_rebuilds_.erase(pn);
    }
    uint64_t ops = trace.ops.size() - before;
    fi->noteRecoveryOps(ops);
    stats_["fault_recovery_ops"] += ops;
    if (pressure_ != nullptr)
        pressure_->onOpCost(PressureOp::kMetaRebuild, ops);
}

template <class Page>
void
CompressedController<Page>::poisonDataFault(Addr ospa_line, const Page &p,
                                            uint32_t off, size_t len,
                                            McTrace &trace)
{
    // The stored data is gone (DUE); ECC flagged it, so the failure is
    // contained: poison the OSPA line and rewrite the slot's blocks
    // with the poison pattern so the fault does not re-fire. The
    // rewrite scrubs the accumulated fault bits (deviceOps write hook).
    fault_.poisonLine(ospa_line);
    ++stats_["fault_lines_poisoned"];
    CPR_OBS_EVENT(obs_, ObsEvent::kFaultRecovery, pageOf(ospa_line),
                  uint32_t(FaultRung::kLinePoison));
    size_t before = trace.ops.size();
    // retry read, then the poison rewrite
    deviceOps(p, off, len, false, false, trace, AttribComp::kFaultRecovery);
    deviceOps(p, off, len, true, false, trace, AttribComp::kFaultRecovery);
    uint64_t ops = trace.ops.size() - before;
    fault_.injector()->noteRecoveryOps(ops);
    stats_["fault_recovery_ops"] += ops;
}

// ---------------------------------------------------------------------
// Accounting & page release
// ---------------------------------------------------------------------

template <class Page>
uint64_t
CompressedController<Page>::validPages() const
{
    uint64_t n = 0;
    for (const auto &[pn, p] : pages_)
        n += p.valid ? 1 : 0;
    return n;
}

template <class Page>
void
CompressedController<Page>::freePage(PageNum pn)
{
    auto it = pages_.find(pn);
    if (it == pages_.end() || !it->second.valid)
        return;
    resizeAlloc(it->second, 0);
    it->second = Page{};
    mdcache_.invalidate(pn);
    fault_.clearPagePoison(pn);
    meta_rebuilds_.erase(pn);
    ++stats_["pages_freed"];
    onPageFreed(pn);
}

} // namespace compresso

#endif // COMPRESSO_CORE_COMPRESSED_CONTROLLER_H

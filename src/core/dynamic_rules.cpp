#include "core/dynamic_rules.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace ppfs {

void StateUniverse::set_metrics(obs::MetricRegistry* reg) {
  m_intern_new_ = reg ? &reg->counter("universe.intern_new") : nullptr;
  m_intern_hit_ = reg ? &reg->counter("universe.intern_hit") : nullptr;
  m_patched_ = reg ? &reg->counter("universe.intern_patched") : nullptr;
  m_released_ = reg ? &reg->counter("universe.released") : nullptr;
  m_time_intern_ = reg ? &reg->timer("time.intern") : nullptr;
}

// --- StateUniverse group-probe index ----------------------------------------
//
// Probe sequence: home group from the upper hash bits, then quadratic
// steps (g += 1, 2, 3, ... mod #groups) — with a power-of-two group count
// the triangular increments visit every group, and the load-factor bound
// below guarantees an empty slot terminates every probe. A lookup stops at
// the first group containing a truly-empty slot (a deleted slot means the
// key could have been pushed past it, so probing continues); an insert
// reuses the first tombstone seen on the way.

std::size_t StateUniverse::find_free_slot(std::uint64_t h) const {
  constexpr std::size_t kW = simd::ProbeGroup::kWidth;
  std::size_t g = home_group(h);
  for (std::size_t step = 0;; ++step) {
    const simd::ProbeGroup grp(ctrl_.data() + g * kW);
    if (auto m = grp.match_empty_or_deleted(); m.any())
      return g * kW + m.first();
    g = (g + step + 1) & group_mask_;
  }
}

void StateUniverse::place(State id, std::size_t slot) {
  ctrl_[slot] = tag_of(hash_[id]);
  ids_[slot] = id;
  slot_of_[id] = slot;
  ++full_;
}

void StateUniverse::rehash(std::size_t groups) {
  constexpr std::size_t kW = simd::ProbeGroup::kWidth;
  ctrl_.assign(groups * kW, simd::kCtrlEmpty);
  ids_.assign(groups * kW, 0);
  group_mask_ = groups - 1;
  full_ = 0;
  tombstones_ = 0;
  for (std::size_t id = 0; id < slots_.size(); ++id)
    if (slots_[id]) place(static_cast<State>(id), find_free_slot(hash_[id]));
}

State StateUniverse::intern(std::string_view bytes) {
  constexpr std::size_t kW = simd::ProbeGroup::kWidth;
  if (ctrl_.empty()) rehash(64 / kW);  // lazy init: 64 slots
  const std::uint64_t h = hash_bytes(bytes);
  const std::uint8_t tag = tag_of(h);
  std::size_t g = home_group(h);
  std::size_t insert_slot = kNoSlot;
  for (std::size_t step = 0;; ++step) {
    const simd::ProbeGroup grp(ctrl_.data() + g * kW);
    for (auto m = grp.match(tag); m.any(); m.pop()) {
      const State id = ids_[g * kW + m.first()];
      if (*slots_[id] == bytes) {
        PPFS_METRIC(m_intern_hit_, add());
        return id;
      }
    }
    if (auto m = grp.match_empty_or_deleted(); m.any()) {
      if (insert_slot == kNoSlot) insert_slot = g * kW + m.first();
      if (grp.match_empty().any()) break;  // miss confirmed
    }
    g = (g + step + 1) & group_mask_;
  }
  PPFS_METRIC(m_intern_new_, add());
  ++fresh_;
  PPFS_TIMER_BEGIN(t0, m_time_intern_);
  State id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    if (slots_.size() >= static_cast<std::size_t>(kNoState))
      throw std::length_error("StateUniverse: id space exhausted");
    id = static_cast<State>(slots_.size());
    slots_.emplace_back();
    hash_.push_back(0);
    slot_of_.push_back(kNoSlot);
  }
  hash_[id] = h;
  if (ctrl_[insert_slot] == simd::kCtrlDeleted) {
    --tombstones_;  // tombstone reuse keeps the load factor flat
  } else if ((full_ + tombstones_ + 1) * 8 > table_slots() * 7) {
    // Load (live + tombstones) crossing 7/8: grow when genuinely full,
    // otherwise rehash in place to sweep tombstones. The new id's slots_
    // entry MUST still be null here: rehash() re-places every id with a
    // non-null encoding, and a premature assignment would get the id
    // placed twice (once by rehash, once below) — the stale duplicate
    // slot would outlive a later release() and serve a dead id.
    const std::size_t groups = group_mask_ + 1;
    rehash(full_ * 8 > table_slots() * 5 ? groups * 2 : groups);
    insert_slot = find_free_slot(h);
  }
  slots_[id] = std::make_unique<std::string>(bytes);
  place(id, insert_slot);
  PPFS_TIMER_END(t0, m_time_intern_);
  return id;
}

State StateUniverse::intern_patched(State base,
                                    std::span<const ByteEdit> edits) {
  PPFS_METRIC(m_patched_, add());
  scratch_ = encoding(base);  // throws on a dead id
  for (const ByteEdit& e : edits) {
    switch (e.op) {
      case ByteEdit::Op::Replace:
        if (e.offset + e.bytes.size() > scratch_.size())
          throw std::out_of_range("intern_patched: replace past the end");
        scratch_.replace(e.offset, e.bytes.size(), e.bytes);
        break;
      case ByteEdit::Op::Insert:
        if (e.offset > scratch_.size())
          throw std::out_of_range("intern_patched: insert past the end");
        scratch_.insert(e.offset, e.bytes);
        break;
      case ByteEdit::Op::Erase:
        if (e.offset + e.erase_len > scratch_.size())
          throw std::out_of_range("intern_patched: erase past the end");
        scratch_.erase(e.offset, e.erase_len);
        break;
    }
  }
  return intern(scratch_);
}

const std::string& StateUniverse::encoding(State s) const {
  if (!is_live(s))
    throw std::out_of_range("StateUniverse: dead or out-of-range id");
  return *slots_[s];
}

void StateUniverse::release(State s) {
  if (!is_live(s))
    throw std::out_of_range("StateUniverse: releasing dead id");
  const std::size_t slot = slot_of_[s];
  ctrl_[slot] = simd::kCtrlDeleted;
  ++tombstones_;
  --full_;
  slots_[s].reset();
  free_.push_back(s);
  PPFS_METRIC(m_released_, add());
}

void StateUniverse::save_state(bin::Writer& w) const {
  w.var(slots_.size());
  for (const auto& slot : slots_) {
    w.u8(slot ? 1 : 0);
    if (slot) w.str(*slot);
  }
  // The free-list ORDER is load-bearing: intern() recycles free_.back()
  // first, so future encodings must receive the same recycled ids.
  w.var(free_.size());
  for (const State s : free_) w.var(s);
}

void StateUniverse::restore_state(bin::Reader& r) {
  const std::size_t cap = r.var();
  slots_.clear();
  slots_.resize(cap);
  hash_.assign(cap, 0);
  slot_of_.assign(cap, kNoSlot);
  for (std::size_t id = 0; id < cap; ++id) {
    if (r.u8()) {
      slots_[id] = std::make_unique<std::string>(r.str());
      hash_[id] = hash_bytes(*slots_[id]);
    }
  }
  const std::size_t nfree = r.var();
  free_.resize(nfree);
  for (auto& f : free_) f = static_cast<State>(r.var());
  scratch_.clear();
  if (cap == 0) {
    // Match a freshly-constructed universe: the table lazy-inits on the
    // first intern.
    ctrl_.clear();
    ids_.clear();
    group_mask_ = 0;
    full_ = 0;
    tombstones_ = 0;
    return;
  }
  // Rebuild the probe table at a size under the grow threshold for the
  // live count; layout and growth timing are invisible to callers.
  constexpr std::size_t kW = simd::ProbeGroup::kWidth;
  std::size_t groups = 64 / kW;
  const std::size_t live_n = cap - nfree;
  while (live_n * 8 > groups * kW * 5) groups *= 2;
  rehash(groups);
}

void StateUniverse::audit_invariants(const char* who) const {
  // Tallies first: the control bytes are the ground truth the SIMD probes
  // run over, so full_/tombstones_ drifting from them corrupts both the
  // load-factor bound and every match loop.
  std::size_t full = 0;
  std::size_t deleted = 0;
  for (const std::uint8_t c : ctrl_) {
    if (c == simd::kCtrlEmpty) continue;
    if (c == simd::kCtrlDeleted) ++deleted;
    else ++full;
  }
  audit::check(full == full_, who, "full_ matches occupied control bytes",
               audit::expected_got(full, full_));
  audit::check(deleted == tombstones_, who,
               "tombstones_ matches deleted control bytes",
               audit::expected_got(deleted, tombstones_));

  // Differential reference map over the live encodings: every live id
  // must round-trip through its recorded slot, and no two live ids may
  // share an encoding (a duplicate means some lookup path can return a
  // stale — possibly later-released — id for live bytes).
  std::size_t live_ids = 0;
  std::unordered_map<std::string_view, State> ref;
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    if (!slots_[id]) continue;
    ++live_ids;
    const auto [it, inserted] =
        ref.emplace(std::string_view(*slots_[id]), static_cast<State>(id));
    audit::check(inserted, who, "live encodings are unique",
                 "ids " + std::to_string(it->second) + " and " +
                     std::to_string(id) + " share an encoding");
    audit::check(hash_[id] == hash_bytes(*slots_[id]), who,
                 "stored hash matches the encoding", "id " + std::to_string(id));
    const std::size_t slot = slot_of_[id];
    audit::check(slot < ctrl_.size(), who, "live id has a valid table slot",
                 "id " + std::to_string(id));
    audit::check(ctrl_[slot] == tag_of(hash_[id]), who,
                 "slot control byte carries the id's tag",
                 "id " + std::to_string(id));
    audit::check(ids_[slot] == static_cast<State>(id), who,
                 "table slot points back at the id",
                 "id " + std::to_string(id) + ", slot " + std::to_string(slot));
  }
  audit::check(live_ids == full_, who, "live ids match occupied slots",
               audit::expected_got(live_ids, full_));

  // Every FULL slot must belong to a live id whose recorded slot is that
  // slot — the stale-duplicate-slot shape of the double-place bug class
  // (see the rehash comment in intern()): a second FULL slot for the same
  // id passes every per-id check above but fails here.
  for (std::size_t slot = 0; slot < ctrl_.size(); ++slot) {
    if (ctrl_[slot] == simd::kCtrlEmpty || ctrl_[slot] == simd::kCtrlDeleted)
      continue;
    const State id = ids_[slot];
    audit::check(is_live(id), who, "FULL slot references a live id",
                 "slot " + std::to_string(slot) + ", id " + std::to_string(id));
    audit::check(slot_of_[id] == slot, who,
                 "FULL slot is the id's recorded slot",
                 "slot " + std::to_string(slot) + ", id " + std::to_string(id));
  }

  // The free list holds exactly the dead ids, each once.
  std::vector<std::uint8_t> freed(slots_.size(), 0);
  for (const State s : free_) {
    audit::check(s < slots_.size() && !slots_[s], who,
                 "free-list entry is a dead id", "id " + std::to_string(s));
    audit::check(!freed[s]++, who, "free-list entries are unique",
                 "id " + std::to_string(s));
  }
  audit::check(free_.size() == slots_.size() - live_ids, who,
               "free list covers every dead id",
               audit::expected_got(slots_.size() - live_ids, free_.size()));
}

// --- OutcomeCache -----------------------------------------------------------

void OutcomeCache::set_capacity(std::size_t capacity) {
  keys_.clear();
  payload_.clear();
  set_mask_ = 0;
  clock_ = 0;
  gen_.clear();
  if (capacity == 0) return;
  std::size_t sets = 1;
  while (sets * kWays < capacity) sets <<= 1;
  keys_.assign(sets * kWays, 0);
  payload_.assign(sets * kWays, Payload{});
  set_mask_ = sets - 1;
}

void OutcomeCache::clear() {
  std::fill(keys_.begin(), keys_.end(), 0);
  std::fill(payload_.begin(), payload_.end(), Payload{});
  clock_ = 0;
  gen_.clear();
  stats_ = Stats{};
}

const StatePair* OutcomeCache::find(InteractionClass c, State s, State r) {
  const std::uint64_t k = key(c, s, r);
  if (k == 0) return nullptr;
  return find_validated(k, s, r);
}

const StatePair* OutcomeCache::find_raw(std::uint64_t key, State in) {
  if (key == 0) return nullptr;
  return find_validated(key, in, in);
}

const StatePair* OutcomeCache::find_validated(std::uint64_t k, State a,
                                              State b) {
  if (keys_.empty()) return nullptr;
  const std::size_t base = set_of(k) * kWays;
  const std::uint64_t* kp = keys_.data() + base;
  for (std::size_t w = 0; w < kWays; ++w) {
    if (kp[w] != k) continue;
    Payload& e = payload_[base + w];
    if (gen(a) != e.g[0] || gen(b) != e.g[1] ||
        gen(e.out.starter) != e.g[2] || gen(e.out.reactor) != e.g[3]) {
      keys_[base + w] = 0;
      ++stats_.stale_drops;
      break;
    }
    e.stamp = ++clock_;
    ++stats_.hits;
    return &e.out;
  }
  ++stats_.misses;
  return nullptr;
}

void OutcomeCache::insert(InteractionClass c, State s, State r, StatePair out) {
  const std::uint64_t k = key(c, s, r);
  if (k == 0) return;
  insert_validated(k, s, r, out);
}

void OutcomeCache::insert_raw(std::uint64_t key, State in, StatePair out) {
  if (key == 0) return;
  insert_validated(key, in, in, out);
}

void OutcomeCache::insert_validated(std::uint64_t k, State a, State b,
                                    StatePair out) {
  if (keys_.empty()) return;
  if ((out.starter | out.reactor) >> 31 != 0) return;
  const std::size_t base = set_of(k) * kWays;
  // Pick the slot: the key itself (stale refresh), an empty way, or the
  // least recently touched way of the set.
  std::size_t victim = base;
  for (std::size_t w = 0; w < kWays; ++w) {
    const std::uint64_t kw = keys_[base + w];
    if (kw == k || kw == 0) {
      victim = base + w;
      break;
    }
    if (payload_[base + w].stamp < payload_[victim].stamp) victim = base + w;
  }
  if (keys_[victim] != 0 && keys_[victim] != k) ++stats_.evictions;
  keys_[victim] = k;
  payload_[victim] = Payload{
      out, {gen(a), gen(b), gen(out.starter), gen(out.reactor)}, ++clock_};
}

void OutcomeCache::invalidate(State s) {
  if (keys_.empty()) return;
  if (s >= gen_.size()) gen_.resize(static_cast<std::size_t>(s) + 1, 0);
  if ((++gen_[s] & 0xffff) == 0) {
    // The truncated generation wrapped (65536th release of this id):
    // clear the table so no stale entry can validate falsely.
    std::fill(keys_.begin(), keys_.end(), 0);
  }
}

void OutcomeCache::audit_live_outputs(
    const char* who, const std::function<bool(State)>& live) const {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == 0) continue;
    const Payload& e = payload_[i];
    // Only currently-valid entries matter: a stale one (any generation
    // truncation off) is dropped on touch and can never be served.
    if (gen(e.out.starter) != e.g[2] || gen(e.out.reactor) != e.g[3]) continue;
    audit::check(live(e.out.starter) && live(e.out.reactor), who,
                 "valid cache entry references only live output ids",
                 "entry " + std::to_string(i) + " -> (" +
                     std::to_string(e.out.starter) + ", " +
                     std::to_string(e.out.reactor) + ")");
  }
}

namespace {

constexpr std::size_t kBlock = 16;

// Whether p[0..kBlock) all equal s; compiled without a branch per element.
bool uniform_block(const State* p, State s) {
  State diff = 0;
  for (std::size_t k = 0; k < kBlock; ++k) diff |= p[k] ^ s;
  return diff == 0;
}

}  // namespace

std::vector<std::pair<State, std::size_t>> first_appearance_groups(
    const std::vector<State>& states, std::size_t q, const char* who) {
  // Initial populations are a few long runs of one state. One increment
  // per agent would chain every add through the same counter, so a block
  // of one state is added at once, and mixed blocks spread their adds over
  // four interleaved tallies. Slot q of each tally counts out-of-range
  // states. The same pass notes each bucket's first appearance, so the
  // vector is read once.
  constexpr std::size_t kWays = 4;
  const std::size_t stride = q + 1;
  std::vector<std::size_t> tally(kWays * stride, 0);
  std::vector<std::uint8_t> seen(stride, 0);
  std::vector<std::pair<State, std::size_t>> groups;  // counts filled last
  const State* p = states.data();
  const std::size_t n = states.size();
  const auto bucket = [q](State s) { return s < q ? s : q; };
  const auto note = [&](std::size_t b) {
    if (seen[b]) return;
    seen[b] = 1;
    groups.emplace_back(static_cast<State>(b), 0);
  };
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    if (uniform_block(p + i, p[i])) {
      note(bucket(p[i]));
      tally[bucket(p[i])] += kBlock;
      continue;
    }
    for (std::size_t k = 0; k < kBlock; ++k) {
      note(bucket(p[i + k]));
      ++tally[(k % kWays) * stride + bucket(p[i + k])];
    }
  }
  for (; i < n; ++i) {
    note(bucket(p[i]));
    ++tally[bucket(p[i])];
  }
  // ppfs-lint: allow(weight-mul): an index below kWays * (q + 1).
  for (std::size_t s = 0; s <= q; ++s)
    for (std::size_t w = 1; w < kWays; ++w) tally[s] += tally[w * stride + s];
  if (tally[q] != 0)
    throw std::invalid_argument(std::string(who) +
                                ": initial state out of range");
  for (auto& [s, k] : groups) k = tally[s];
  return groups;
}

std::vector<std::pair<State, std::size_t>>
DynamicRuleSource::intern_initial_groups(const std::vector<State>& sim) {
  const std::vector<State> ids = intern_initial(sim);
  return first_appearance_groups(ids, universe_size(), "DynamicRuleSource");
}

std::vector<State> MatrixRuleSource::intern_initial(
    const std::vector<State>& sim) {
  for (State q : sim) {
    if (q >= rules_.num_states())
      throw std::invalid_argument(
          "MatrixRuleSource: initial state out of range");
  }
  return sim;
}

}  // namespace ppfs

#include "simcomm/comm.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <tuple>
#include <unordered_map>

#include "simcomm/fault.hpp"
#include "simcomm/fiber.hpp"

namespace sagnn {

namespace comm_detail {

/// An arrived message nobody has claimed yet.
struct Message {
  std::uint64_t seq;  ///< position in the (src, tag) arrival stream
  std::vector<std::byte> data;
};

/// Everything the receiver keeps for one (src, tag) pair. Created on first
/// use and never erased or renumbered: its seqs feed the fault plan's
/// per-message decisions.
struct Stream {
  std::uint64_t next_arrival = 0;  ///< seq the next send takes
  std::uint64_t next_posted = 0;   ///< seq the next posted receive takes
  /// Arrived, unclaimed messages. Usually zero or one: a deeper backlog
  /// only forms when sends run ahead of their receives.
  std::vector<Message> arrived;

  std::vector<Message>::iterator find(std::uint64_t seq) {
    return std::find_if(arrived.begin(), arrived.end(),
                        [seq](const Message& m) { return m.seq == seq; });
  }
  /// Deliver `msg` unless a copy with its seq is already pending — a
  /// redundant delivery, suppressed by sequence number. False on
  /// suppression.
  bool deliver(Message&& msg) {
    if (find(msg.seq) != arrived.end()) return false;
    arrived.push_back(std::move(msg));
    return true;
  }
};

struct StreamKey {
  int src;
  long tag;
  bool operator==(const StreamKey&) const = default;
};

struct StreamKeyHash {
  std::size_t operator()(const StreamKey& k) const noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(k.tag) * 0x9e3779b97f4a7c15ull;
    h ^= static_cast<std::uint32_t>(k.src);
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

/// A message a lossy link swallowed, parked in the RECEIVER's mailbox so
/// the whole retry protocol runs under the one mailbox lock. The
/// retransmission carries the original sequence number — deterministic
/// (src, tag) matching is preserved underneath the faults.
struct DroppedMessage {
  std::uint64_t attempts = 0;  ///< transmissions so far (all dropped)
  std::vector<std::byte> data;
};

struct Mailbox {
  explicit Mailbox(int owner) : rank(owner) {}

  const int rank;
  std::mutex mutex;
  std::unordered_map<StreamKey, Stream, StreamKeyHash> streams;
  /// Slots whose receive was destroyed unwaited: the matching arrival is
  /// dropped on sight so later slots keep matching their own messages.
  /// Rare, so kept here rather than in every stream.
  std::vector<std::pair<const Stream*, std::uint64_t>> abandoned;
  /// Retransmit store of the retry protocol, keyed (src, tag, seq).
  std::map<std::tuple<int, long, std::uint64_t>, DroppedMessage> dropped;
  /// The slot the owner is blocked on (null: not blocked) and the waiter
  /// parked on it. isend wakes that waiter only for this slot; abort()
  /// wakes it whatever the slot.
  const Stream* awaited = nullptr;
  std::uint64_t awaited_seq = 0;
  Waiter* waiter = nullptr;

  Stream& stream(int src, long tag) { return streams[StreamKey{src, tag}]; }
  bool awaits(const Stream& s, std::uint64_t seq) const {
    return awaited == &s && awaited_seq == seq;
  }
  /// Consume the abandon mark of slot `seq` of `s`, if any.
  bool take_abandoned(const Stream& s, std::uint64_t seq) {
    auto it = std::find(abandoned.begin(), abandoned.end(), std::make_pair(&s, seq));
    if (it == abandoned.end()) return false;
    abandoned.erase(it);
    return true;
  }
};

}  // namespace comm_detail

using comm_detail::DroppedMessage;
using comm_detail::Mailbox;
using comm_detail::Message;
using comm_detail::Stream;

namespace {

/// The steady-clock time `s` seconds from now.
SteadyTime after_seconds(double s) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(s));
}

/// Records `waiter` as blocked on one slot for the scope of one or more
/// parks. The mailbox lock must be held.
class Awaiting {
 public:
  Awaiting(Mailbox& box, const Stream& stream, std::uint64_t seq, Waiter& waiter)
      : box_(box) {
    // A rank is one waiter: its fiber, or the one thread that drives it. A
    // second waiter would be invisible to the single-slot wakeup in isend,
    // so it is refused rather than lost.
    SAGNN_REQUIRE(box.awaited == nullptr,
                  "a second thread blocked on rank " + std::to_string(box.rank) +
                      "'s mailbox (one waiter per mailbox)");
    box.awaited = &stream;
    box.awaited_seq = seq;
    box.waiter = &waiter;
  }
  ~Awaiting() {
    box_.awaited = nullptr;
    box_.waiter = nullptr;
  }
  Awaiting(const Awaiting&) = delete;
  Awaiting& operator=(const Awaiting&) = delete;

 private:
  Mailbox& box_;
};

}  // namespace

CommWorld::CommWorld(int size) : size_(size), traffic_(size) {
  SAGNN_REQUIRE(size > 0, "world size must be positive");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) mailboxes_.push_back(std::make_unique<Mailbox>(i));
}

CommWorld::~CommWorld() = default;

void CommWorld::install_fault_plan(std::shared_ptr<const FaultPlan> plan) {
  fault_plan_ = std::move(plan);
  if (fault_plan_ != nullptr && epoch_sends_ == nullptr) {
    epoch_sends_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        static_cast<std::size_t>(size_));
    for (int r = 0; r < size_; ++r) epoch_sends_[static_cast<std::size_t>(r)] = 0;
  }
}

void CommWorld::begin_fault_epoch(int epoch) {
  SAGNN_REQUIRE(epoch >= 0, "fault epoch must be >= 0");
  if (fault_plan_ == nullptr) return;
  for (int r = 0; r < size_; ++r) {
    epoch_sends_[static_cast<std::size_t>(r)].store(0, std::memory_order_relaxed);
  }
  fault_epoch_.store(epoch, std::memory_order_release);
}

void CommWorld::poll_fault(int rank) {
  const FaultPlan* plan = fault_plan_.get();
  if (plan == nullptr || !plan->has_kills()) return;
  const int epoch = fault_epoch_.load(std::memory_order_acquire);
  if (epoch < 0) return;
  plan->maybe_kill(
      rank, epoch,
      epoch_sends_[static_cast<std::size_t>(rank)].load(std::memory_order_relaxed));
}

double CommWorld::now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Request CommWorld::isend(int src, int dst, long tag,
                         std::span<const std::byte> data,
                         const std::string& phase) {
  SAGNN_REQUIRE(src >= 0 && src < size_ && dst >= 0 && dst < size_,
                "send rank out of range");
  const FaultPlan* plan = fault_plan_.get();
  if (plan != nullptr && src != dst) {
    // Scheduled kills fire on the victim's own rank at its send
    // boundaries (the epoch-top poll covers the after_sends == 0 case).
    const int epoch = fault_epoch_.load(std::memory_order_acquire);
    if (epoch >= 0 && plan->has_kills()) {
      const std::uint64_t done = epoch_sends_[static_cast<std::size_t>(src)]
                                     .fetch_add(1, std::memory_order_relaxed);
      plan->maybe_kill(src, epoch, done);
    }
    // Straggler: the slow rank pays its delay before every cross-rank
    // send, so its peers' blocked time rises in the overlap ledger exactly
    // as a real straggler's would. A rank fiber sleeps on the scheduler's
    // timer, so its worker runs other ranks meanwhile.
    const double delay = plan->send_delay(src);
    if (delay > 0) {
      sleep_until(after_seconds(delay));
      traffic_.record_straggler(delay);
    }
  }
  traffic_.record(phase, src, dst, data.size());
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  bool dropped = false;
  bool duplicated = false;
  Waiter* wake = nullptr;
  {
    std::lock_guard lock(box.mutex);
    Stream& stream = box.stream(src, tag);
    const std::uint64_t seq = stream.next_arrival++;
    if (box.take_abandoned(stream, seq)) {
      // The receive for this slot was destroyed unwaited; drop the payload
      // so later slots keep matching their own messages.
    } else if (plan != nullptr && plan->should_drop(src, dst, tag, seq, 1)) {
      // The link swallowed the transmission. The payload parks in the
      // receiver's retransmit store — it still consumed its arrival seq,
      // so the retransmission matches the same posted receive. A receiver
      // blocked on this slot wakes to start the retry protocol.
      box.dropped.emplace(std::make_tuple(src, tag, seq),
                          DroppedMessage{1, {data.begin(), data.end()}});
      dropped = true;
      if (box.awaits(stream, seq)) wake = box.waiter;
    } else {
      (void)stream.deliver(Message{seq, {data.begin(), data.end()}});
      if (plan != nullptr && plan->should_duplicate(src, dst, tag, seq, 1)) {
        // A flaky link delivers twice; the redundant copy must be
        // suppressed by its sequence number.
        duplicated = !stream.deliver(Message{seq, {data.begin(), data.end()}});
      }
      if (box.awaits(stream, seq)) wake = box.waiter;
    }
  }
  if (dropped) traffic_.record_fault_drop();
  if (duplicated) traffic_.record_fault_duplicate();
  if (wake != nullptr) wake->unpark();
  return Request(this, Request::Kind::kSend, nullptr, nullptr, src, tag, 0);
}

Request CommWorld::irecv(int me, int src, long tag) {
  SAGNN_REQUIRE(me >= 0 && me < size_ && src >= 0 && src < size_,
                "recv rank out of range");
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(me)];
  Stream* stream = nullptr;
  std::uint64_t seq = 0;
  {
    std::lock_guard lock(box.mutex);
    stream = &box.stream(src, tag);
    seq = stream->next_posted++;
  }
  return Request(this, Request::Kind::kRecv, &box, stream, src, tag, seq);
}

void CommWorld::send(int src, int dst, long tag, std::span<const std::byte> data,
                     const std::string& phase) {
  (void)isend(src, dst, tag, data, phase);
}

std::vector<std::byte> CommWorld::recv(int me, int src, long tag) {
  SAGNN_REQUIRE(me >= 0 && me < size_ && src >= 0 && src < size_,
                "recv rank out of range");
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(me)];
  std::unique_lock lock(box.mutex);
  Stream& stream = box.stream(src, tag);
  const std::uint64_t seq = stream.next_posted++;
  return wait_recv(lock, box, stream, src, tag, seq, nullptr);
}

std::vector<std::byte> CommWorld::wait_recv(std::unique_lock<std::mutex>& lock,
                                            Mailbox& box, Stream& stream, int src,
                                            long tag, std::uint64_t seq,
                                            WaitStats* stats) {
  const double wait_begin = stats != nullptr ? now_seconds() : 0;
  const int me = box.rank;
  const FaultPlan* plan = fault_plan_.get();
  const bool lossy = plan != nullptr && plan->lossy(src, me);
  Waiter& self = current_waiter();
  for (;;) {
    auto it = stream.find(seq);
    if (it != stream.arrived.end()) {
      if (stats != nullptr) stats->blocked = std::max(0.0, now_seconds() - wait_begin);
      std::vector<std::byte> data = std::move(it->data);
      stream.arrived.erase(it);
      return data;
    }
    if (aborted()) throw AbortedError();
    if (!lossy) {
      Awaiting awaiting(box, stream, seq, self);
      (void)self.park_until(lock, SteadyTime::max());
      continue;
    }

    // Lossy link: never block forever on a message the link may have
    // swallowed. Time out (exponential backoff per attempt), consult the
    // retransmit store, and drive the bounded-retry protocol. Timing only
    // affects wall-clock — drop outcomes are hash-keyed by attempt number,
    // so the delivered payload stream is deterministic.
    const auto key = std::make_tuple(src, tag, seq);
    auto parked = box.dropped.find(key);
    if (parked == box.dropped.end()) {
      // Nothing known-dropped for this slot: the message may simply not
      // have been sent yet. Poll with the base timeout so a later drop is
      // noticed (a real receiver cannot tell the two cases apart either).
      Awaiting awaiting(box, stream, seq, self);
      if (!self.park_until(lock, after_seconds(plan->retry_timeout(1)))) {
        traffic_.record_fault_timeout();
      }
      continue;
    }
    const std::uint64_t attempts = parked->second.attempts;
    if (attempts >= static_cast<std::uint64_t>(plan->max_attempts())) {
      box.dropped.erase(parked);
      throw FaultError("link " + std::to_string(src) + "->" +
                       std::to_string(me) + " lost message (tag " +
                       std::to_string(tag) + ", seq " + std::to_string(seq) +
                       "): retry budget of " +
                       std::to_string(plan->max_attempts()) +
                       " attempts exhausted");
    }
    // Back off for this attempt's full timeout before the retransmission
    // fires. Nothing but our own retransmission can deliver this
    // (src, tag, seq) slot, so only abort() or a spurious wakeup ends the
    // wait early — and the protocol invariant timeouts >= retries holds
    // only if every retry is timeout-driven.
    const SteadyTime deadline = after_seconds(plan->retry_timeout(attempts));
    {
      Awaiting awaiting(box, stream, seq, self);
      while (self.park_until(lock, deadline)) {
        if (aborted()) throw AbortedError();
      }
    }
    traffic_.record_fault_timeout();
    if (aborted()) throw AbortedError();
    parked = box.dropped.find(key);  // the park released the lock
    if (parked == box.dropped.end()) continue;
    const std::uint64_t attempt = ++parked->second.attempts;
    traffic_.record_fault_retry();
    // The retransmission puts real bytes back on the wire; account them.
    traffic_.record("retry", src, me, parked->second.data.size());
    if (plan->should_drop(src, me, tag, seq, attempt)) {
      traffic_.record_fault_drop();
      continue;  // dropped again; the next cycle backs off longer
    }
    Message msg{seq, std::move(parked->second.data)};
    box.dropped.erase(parked);
    if (plan->should_duplicate(src, me, tag, seq, attempt)) {
      Message copy = msg;
      (void)stream.deliver(std::move(msg));
      if (!stream.deliver(std::move(copy))) traffic_.record_fault_duplicate();
    } else {
      (void)stream.deliver(std::move(msg));
    }
    // Delivered: the next loop iteration claims it.
  }
}

void CommWorld::abandon_recv(Mailbox& box, Stream& stream, int src, long tag,
                             std::uint64_t seq) {
  std::lock_guard lock(box.mutex);
  auto it = stream.find(seq);
  if (it != stream.arrived.end()) {
    stream.arrived.erase(it);
  } else if (box.dropped.erase(std::make_tuple(src, tag, seq)) == 0) {
    // Not arrived and not parked in the retransmit store: mark the slot so
    // the future arrival is dropped on sight.
    box.abandoned.emplace_back(&stream, seq);
  }
}

std::vector<std::byte> Request::wait(WaitStats* stats) {
  if (state_ == State::kDone) {
    throw RequestError("wait() called twice on the same request");
  }
  if (state_ != State::kPending) {
    throw RequestError("wait() on an empty (default or moved-from) request");
  }
  // Consumed either way: an AbortedError escape must not leave a handle the
  // destructor would try to abandon against a torn-down stream.
  state_ = State::kDone;
  if (kind_ == Kind::kSend) {
    if (stats != nullptr) *stats = {};
    return {};
  }
  std::unique_lock lock(box_->mutex);
  return world_->wait_recv(lock, *box_, *stream_, src_, tag_, seq_, stats);
}

void Request::release() {
  if (state_ == State::kPending && kind_ == Kind::kRecv) {
    world_->abandon_recv(*box_, *stream_, src_, tag_, seq_);
  }
  world_ = nullptr;
  state_ = State::kEmpty;
}

void resolve_aborted(std::span<Request> requests) {
  for (Request& r : requests) {
    if (!r.valid()) continue;
    try {
      (void)r.wait();  // immediate: waits on an aborted world never block
    } catch (const AbortedError&) {
    }
  }
}

std::vector<std::vector<std::byte>> waitall(std::span<Request> requests,
                                            WaitStats* accumulated) {
  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(requests.size());
  for (Request& r : requests) {
    WaitStats stats;
    try {
      payloads.push_back(r.wait(&stats));
    } catch (const AbortedError&) {
      // The world died between two completions. Resolve every remaining
      // handle the same way so none of them leaks its stream slot through
      // the destructor's abandon path, then surface the abort.
      resolve_aborted(requests);
      throw;
    }
    if (accumulated != nullptr) accumulated->blocked += stats.blocked;
  }
  return payloads;
}

void CommWorld::abort() {
  aborted_.store(true, std::memory_order_release);
  for (auto& box : mailboxes_) {
    Waiter* waiter = nullptr;
    {
      std::lock_guard lock(box->mutex);
      waiter = box->waiter;
    }
    if (waiter != nullptr) waiter->unpark();
  }
}

Comm::Comm(CommWorld& world, int rank) : world_(&world), rank_(rank) {
  SAGNN_REQUIRE(rank >= 0 && rank < world.size(), "rank out of range");
  members_.resize(static_cast<std::size_t>(world.size()));
  for (int i = 0; i < world.size(); ++i) members_[static_cast<std::size_t>(i)] = i;
}

void Comm::barrier() {
  const int p = size();
  const long epoch = barrier_epoch_++;
  if (p == 1) return;
  // Dissemination barrier: ceil(log2 p) rounds of token passing. Recorded
  // under the "sync" phase; cost models typically exclude it (the paper's
  // alpha-beta analysis does not charge barriers).
  const std::byte token{0};
  for (int k = 0, dist = 1; dist < p; ++k, dist <<= 1) {
    const int to = (rank_ + dist) % p;
    const int from = (rank_ - dist % p + p) % p;
    world_->send(world_rank(rank_), world_rank(to),
                 stamp(kBarrierTagBase + epoch * 64 + k), {&token, 1}, "sync");
    (void)world_->recv(world_rank(rank_), world_rank(from),
                       stamp(kBarrierTagBase + epoch * 64 + k));
  }
}

Comm Comm::split(const std::function<int(int)>& color_of) const {
  const int my_color = color_of(rank_);
  Comm out;
  out.world_ = world_;
  // split_seq_ advances on the parent so a later split() from the same
  // parent gets a different communicator id even with equal colors.
  const std::uint64_t seq = split_seq_++;
  for (int r = 0; r < size(); ++r) {
    if (color_of(r) == my_color) {
      if (r == rank_) out.rank_ = static_cast<int>(out.members_.size());
      out.members_.push_back(world_rank(r));
    }
  }
  SAGNN_CHECK(out.rank_ >= 0);
  // Unsigned, so deep split chains wrap instead of overflowing. An id that
  // fits a long (depth <= 3) has the same bits as in signed arithmetic, so
  // stamped tags, and the seeded lossy drops keyed on them, do not move.
  out.comm_id_ = comm_id_ * 1000003u + seq * 1009u +
                 static_cast<std::uint64_t>(std::int64_t{my_color} + 1);
  return out;
}

}  // namespace sagnn

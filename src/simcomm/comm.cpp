#include "simcomm/comm.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "simcomm/fault.hpp"
#include "simcomm/fiber.hpp"

namespace sagnn {

namespace comm_detail {

/// A sent message nobody has claimed yet. Its lossy-link outcome is
/// settled when it is sent: a message whose first transmission got through
/// has landed; a retransmitted one lands at `lands`; a lost one (every
/// attempt swallowed, no payload kept) is given up on at `lands`.
struct Message {
  std::uint64_t seq;  ///< position in the (src, tag) arrival stream
  std::vector<std::byte> data;
  SteadyTime lands{};  ///< time_point{}: landed when it was sent
  bool lost = false;

  bool landed() const {
    return lands == SteadyTime{} || std::chrono::steady_clock::now() >= lands;
  }
};

/// Everything the receiver keeps for one (src, tag) pair. Created on first
/// use and never erased or renumbered: its seqs feed the fault plan's
/// per-message decisions.
struct Stream {
  std::uint64_t next_arrival = 0;  ///< seq the next send takes
  std::uint64_t next_posted = 0;   ///< seq the next posted receive takes
  /// Sent, unclaimed messages. Usually zero or one: a deeper backlog only
  /// forms when sends run ahead of their receives. The message of a
  /// receive dropped unwaited stays here until the world goes.
  std::vector<Message> arrived;

  std::vector<Message>::iterator find(std::uint64_t seq) {
    return std::find_if(arrived.begin(), arrived.end(),
                        [seq](const Message& m) { return m.seq == seq; });
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

/// Cache-line aligned: each mailbox is locked and written by the ranks that
/// send to it, so a neighbour's hot fields must not share its lines.
struct alignas(64) Mailbox {
  explicit Mailbox(int owner) : rank(owner) {}

  const int rank;
  std::mutex mutex;
  std::unordered_map<StreamKey, Stream, StreamKeyHash> streams;
  /// The slot the owner is blocked on (null: not blocked) and the waiter
  /// parked on it. send wakes that waiter only for this slot; abort()
  /// wakes it whatever the slot.
  const Stream* awaited = nullptr;
  std::uint64_t awaited_seq = 0;
  Waiter* waiter = nullptr;

  Stream& stream(int src, long tag) { return streams[StreamKey{src, tag}]; }
  bool awaits(const Stream& s, std::uint64_t seq) const {
    return awaited == &s && awaited_seq == seq;
  }
};

}  // namespace comm_detail

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

/// The lossy-link outcome of one message, settled when it is sent. Every
/// decision is a pure hash of the message identity and the attempt number,
/// so settling them up front drops and retransmits exactly what a
/// sender's retransmission timer would, whenever the receiver looks.
struct LinkOutcome {
  std::uint64_t drops = 0;    ///< transmissions the link swallowed
  std::uint64_t retries = 0;  ///< retransmissions sent
  bool lost = false;          ///< every attempt swallowed
  double delay = 0;           ///< seconds from the send to landing (or loss)
};

LinkOutcome settle_link(const FaultPlan& plan, int src, int dst, long tag,
                        std::uint64_t seq) {
  LinkOutcome out;
  const auto max_attempts = static_cast<std::uint64_t>(plan.max_attempts());
  std::uint64_t attempt = 1;
  for (; plan.should_drop(src, dst, tag, seq, attempt); ++attempt) {
    ++out.drops;
    if (attempt == max_attempts) {
      out.lost = true;
      return out;
    }
    // Attempt a + 1 goes out retry_timeout(a) after attempt a.
    ++out.retries;
    out.delay += plan.retry_timeout(attempt);
  }
  return out;
}

/// Records `waiter` as blocked on one slot for the scope of one park. The
/// mailbox lock must be held.
class Awaiting {
 public:
  Awaiting(Mailbox& box, const Stream& stream, std::uint64_t seq, Waiter& waiter)
      : box_(box) {
    // A rank is one waiter: its fiber. Another rank's fiber can still reach
    // this mailbox through CommWorld::recv; it would be invisible to the
    // single-slot wakeup in send, so it is refused rather than lost.
    SAGNN_REQUIRE(box.awaited == nullptr,
                  "a second fiber blocked on rank " + std::to_string(box.rank) +
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

void CommWorld::send(int src, int dst, long tag, std::span<const std::byte> data,
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
  LinkOutcome link;
  Waiter* wake = nullptr;
  {
    std::lock_guard lock(box.mutex);
    Stream& stream = box.stream(src, tag);
    const std::uint64_t seq = stream.next_arrival++;
    if (plan != nullptr) link = settle_link(*plan, src, dst, tag, seq);
    Message msg{seq, {}};
    msg.lost = link.lost;
    if (!link.lost) msg.data.assign(data.begin(), data.end());
    // Only a retransmitted or lost message reads the clock.
    if (link.delay > 0) msg.lands = after_seconds(link.delay);
    stream.arrived.push_back(std::move(msg));
    if (box.awaits(stream, seq)) wake = box.waiter;
  }
  for (std::uint64_t i = 0; i < link.drops; ++i) traffic_.record_fault_drop();
  for (std::uint64_t i = 0; i < link.retries; ++i) {
    traffic_.record_fault_retry();
    // A retransmission puts the payload back on the wire.
    traffic_.record("retry", src, dst, data.size());
  }
  if (wake != nullptr) wake->unpark();
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
  return Request(this, &box, stream, src, tag, seq);
}

std::vector<std::byte> CommWorld::recv(int me, int src, long tag) {
  SAGNN_REQUIRE(me >= 0 && me < size_ && src >= 0 && src < size_,
                "recv rank out of range");
  Waiter& self = current_waiter();  // before the slot is taken
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(me)];
  std::unique_lock lock(box.mutex);
  Stream& stream = box.stream(src, tag);
  const std::uint64_t seq = stream.next_posted++;
  return wait_recv(lock, self, box, stream, src, tag, seq, nullptr);
}

std::vector<std::byte> CommWorld::wait_recv(std::unique_lock<std::mutex>& lock,
                                            Waiter& self, Mailbox& box,
                                            Stream& stream, int src, long tag,
                                            std::uint64_t seq, WaitStats* stats) {
  const double wait_begin = stats != nullptr ? now_seconds() : 0;
  for (;;) {
    auto it = stream.find(seq);
    SteadyTime until = SteadyTime::max();
    if (it != stream.arrived.end()) {
      if (!it->landed()) {
        until = it->lands;  // a retransmission still in flight
      } else if (it->lost) {
        stream.arrived.erase(it);
        throw FaultError("link " + std::to_string(src) + "->" +
                         std::to_string(box.rank) + " lost message (tag " +
                         std::to_string(tag) + ", seq " + std::to_string(seq) +
                         "): retry budget of " +
                         std::to_string(fault_plan_->max_attempts()) +
                         " attempts exhausted");
      } else {
        if (stats != nullptr) {
          stats->blocked = std::max(0.0, now_seconds() - wait_begin);
        }
        std::vector<std::byte> data = std::move(it->data);
        stream.arrived.erase(it);
        return data;
      }
    }
    if (aborted()) throw AbortedError();
    Awaiting awaiting(box, stream, seq, self);
    self.park_until(lock, until);
  }
}

std::vector<std::byte> Request::wait(WaitStats* stats) {
  if (state_ == State::kDone) {
    throw RequestError("wait() called twice on the same request");
  }
  if (state_ != State::kPending) {
    throw RequestError("wait() on an empty (default or moved-from) request");
  }
  // Off a rank fiber this throws and the handle stays pending.
  Waiter& self = current_waiter();
  // Consumed even if the wait throws (abort, lost message): its slot is
  // spent either way.
  state_ = State::kDone;
  std::unique_lock lock(box_->mutex);
  return world_->wait_recv(lock, self, *box_, *stream_, src_, tag_, seq_, stats);
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

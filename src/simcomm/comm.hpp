#pragma once
// The simulated message-passing runtime.
//
// CommWorld owns one mailbox per rank; a Comm is a view of a subset of
// ranks (like an MPI communicator / NCCL clique). A send is a plain call:
// the payload is copied into the receiver's mailbox before send() returns.
// A receive is either blocking (recv) or posted (irecv returns a Request
// whose wait() claims the message later, the MPI_Irecv/Wait idiom the
// pipelined SpMM schedules are written in). Both claim their slot through
// the same wait_recv, so there is a single matching path.
//
// Semantics:
//   * Sends are eager: send() deep-copies the payload into the receiver's
//     mailbox immediately, so progress never depends on the sender again —
//     it is driven entirely by the receiver's mailbox.
//   * Matching is deterministic per (source, tag): the k-th POSTED receive
//     for a (src, tag) pair completes with the k-th SENT message of that
//     pair, regardless of the order the requests are waited in. Posting
//     order, not wait order, defines the stream — which is what keeps
//     chunked pipelines bitwise reproducible.
//   * Abort-safe: when a rank fails, Cluster calls abort() and every
//     pending wait (current or future) resolves to AbortedError instead of
//     deadlocking. A receive destroyed unwaited keeps its reserved slot,
//     so later receives of its stream still get their own messages; its
//     message, if one comes, is freed with the world. In the library only
//     an aborting world drops a posted receive.
//   * wait() on an already-completed or empty handle is a typed
//     RequestError, never undefined behavior.
//   * Blocking receives run on rank fibers (simcomm/fiber.hpp). On any
//     other thread wait() and recv() throw a typed Error before they take
//     or consume a slot. Sends may come from any thread.
//   * One waiter per mailbox: a rank is one fiber, so only the owner
//     blocks on its mailbox. Another rank's fiber that tries to block
//     there through CommWorld::recv while the owner is blocked gets a
//     typed Error.
//   * Lossy links (fault.hpp) are settled when a message is sent: send()
//     decides every attempt's drop and retransmission at once and stores
//     the message as landed, landing later (retransmitted) or lost. A
//     receive claims a landed message, throws FaultError for a lost one
//     and otherwise parks until the message lands.
//
// Cost per message: each mailbox keeps one stream per (src, tag) — next
// arrival seq, next posted seq, sent-but-unclaimed messages — so send,
// irecv and recv each cost one hash lookup, and a Request keeps its stream
// for wait(). A blocked receiver parks its fiber (a user-space switch, no
// kernel sleep) and records the one slot it awaits and itself as the
// waiter; send wakes that waiter only when it deposits that slot, after
// releasing the mailbox lock. The runtime reads the clock for a
// retransmitted or lost message (send stamps when it lands, the receiver
// compares) and inside Request::wait(&stats), on entry and on completion,
// to measure WaitStats::blocked. Without a fault plan, irecv, send and
// blocking recv never touch it.
//
// Tag space: user tags must be < kUserTagLimit. Internal operations
// (barriers, collectives) use reserved offsets above that, further prefixed
// by a per-communicator id so concurrent collectives on different
// communicators never cross-match — pending requests included, since the
// namespacing happens at post time.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "simcomm/traffic.hpp"

namespace sagnn {

class FaultPlan;
class Waiter;

namespace comm_detail {
// Defined in comm.cpp: a rank's mailbox and one (src, tag) stream in it.
struct Mailbox;
struct Stream;
}  // namespace comm_detail

/// Thrown out of blocked receives when the cluster is torn down after
/// another rank failed; prevents deadlock on rank errors.
class AbortedError : public Error {
 public:
  AbortedError() : Error("communication aborted: another rank failed") {}
};

/// Misuse of a Request handle: waiting twice, or waiting an empty
/// (default-constructed or moved-from) handle.
class RequestError : public Error {
 public:
  explicit RequestError(const std::string& msg) : Error("request error: " + msg) {}
};

/// Wall-clock cost of one completed wait (steady-clock seconds): `blocked`
/// is the time actually stalled inside wait() for the message to arrive.
struct WaitStats {
  double blocked = 0;
};

class CommWorld;

/// A posted receive: one reserved slot of a (src, tag) stream. Move-only
/// (moving empties the source); exactly one wait() per handle, which needs
/// the world alive. The destructor touches nothing: a receive destroyed
/// unwaited keeps its slot, and an unwaited handle may outlive its world.
class Request {
 public:
  Request() = default;
  Request(Request&& other) noexcept { *this = std::move(other); }
  Request& operator=(Request&& other) noexcept {
    world_ = other.world_;
    box_ = other.box_;
    stream_ = other.stream_;
    src_ = other.src_;
    tag_ = other.tag_;
    seq_ = other.seq_;
    state_ = std::exchange(other.state_, State::kEmpty);
    return *this;
  }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// True if this handle holds a not-yet-waited receive.
  bool valid() const { return state_ == State::kPending; }

  /// Complete the receive: returns the payload bytes, blocking until the
  /// matching message lands. Throws AbortedError if the world aborts while
  /// pending, FaultError if a lossy link lost the message, RequestError on
  /// double-wait or an empty handle, and Error off a rank fiber (the handle
  /// then stays pending). When `stats` is non-null it receives the blocked
  /// time of this wait.
  std::vector<std::byte> wait(WaitStats* stats = nullptr);

 private:
  friend class CommWorld;
  enum class State : std::uint8_t { kEmpty, kPending, kDone };

  Request(CommWorld* world, comm_detail::Mailbox* box, comm_detail::Stream* stream,
          int src, long tag, std::uint64_t seq)
      : world_(world),
        box_(box),
        stream_(stream),
        src_(src),
        tag_(tag),
        seq_(seq),
        state_(State::kPending) {}

  CommWorld* world_ = nullptr;
  comm_detail::Mailbox* box_ = nullptr;
  comm_detail::Stream* stream_ = nullptr;
  int src_ = -1;
  long tag_ = 0;
  std::uint64_t seq_ = 0;
  State state_ = State::kEmpty;
};
static_assert(std::is_trivially_destructible_v<Request>);

class CommWorld {
 public:
  explicit CommWorld(int size);
  ~CommWorld();

  int size() const { return size_; }
  TrafficRecorder& traffic() { return traffic_; }
  const TrafficRecorder& traffic() const { return traffic_; }

  /// Matched send: copies `data` into dst's mailbox and records the bytes
  /// under `phase`. Eager: the message is deposited when this returns.
  void send(int src, int dst, long tag, std::span<const std::byte> data,
            const std::string& phase);

  /// Posted receive: reserves the next slot of the (src, tag) stream at
  /// post time and returns the pending Request.
  Request irecv(int me, int src, long tag);

  /// Blocking receive of the message with matching (src, tag): reserves
  /// the next slot of the stream like irecv() and claims it through the
  /// same wait_recv as Request::wait(), without reading the clock on a
  /// fault-free world. Throws Error off a rank fiber, before taking the
  /// slot.
  std::vector<std::byte> recv(int me, int src, long tag);

  /// Wake every parked receiver with AbortedError (called by Cluster when
  /// a rank throws). Pending requests resolve at their next wait().
  void abort();
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Install a deterministic fault plan (fault.hpp). Null (the default)
  /// and an installed-but-empty plan are bitwise identical: every fault
  /// path is behind the null check AND the plan's own probabilities/specs.
  /// Call before any traffic; shared so drivers can inspect the plan.
  void install_fault_plan(std::shared_ptr<const FaultPlan> plan);
  const FaultPlan* fault_plan() const { return fault_plan_.get(); }

  /// Arm scheduled kills for `epoch` and zero the per-rank send counters
  /// their `after_sends` thresholds count against. Call single-threaded
  /// between SPMD rounds (no rank may be inside the world). Kills stay
  /// disarmed (setup traffic runs kill-free) until the first call.
  void begin_fault_epoch(int epoch);

  /// Kill check at a schedule boundary (e.g. the top of an epoch): throws
  /// RankKilledError if a scheduled kill for `rank` in the armed epoch is
  /// due. Sends perform the same check implicitly.
  void poll_fault(int rank);

  /// Steady-clock seconds (arbitrary epoch) — the clock every WaitStats
  /// figure is expressed in.
  static double now_seconds();

 private:
  friend class Request;

  /// The one matching path, shared by Request::wait() and the blocking
  /// recv(): claim slot `seq` of the (src, tag) `stream` in `box`, parking
  /// `self` (the calling rank fiber) until the message lands, and throw
  /// FaultError if the link lost it. `lock` holds box's mutex on entry and
  /// exit. Without a fault plan the clock is read only when `stats` is
  /// non-null.
  std::vector<std::byte> wait_recv(std::unique_lock<std::mutex>& lock,
                                   Waiter& self, comm_detail::Mailbox& box,
                                   comm_detail::Stream& stream, int src, long tag,
                                   std::uint64_t seq, WaitStats* stats);

  int size_;
  TrafficRecorder traffic_;
  std::vector<std::unique_ptr<comm_detail::Mailbox>> mailboxes_;
  std::atomic<bool> aborted_{false};
  /// Fault injection (null = fault-free fast path, bit-identical runtime).
  std::shared_ptr<const FaultPlan> fault_plan_;
  std::atomic<int> fault_epoch_{-1};  ///< kills armed only when >= 0
  /// Per-rank cross-rank sends completed in the armed epoch (KillSpec::
  /// after_sends thresholds count these).
  std::unique_ptr<std::atomic<std::uint64_t>[]> epoch_sends_;
};

/// A communicator: an ordered subset of world ranks plus this rank's
/// position in it. Cheap to copy. All collective operations live in
/// collectives.hpp and operate on a Comm.
class Comm {
 public:
  /// World communicator for rank `rank`.
  Comm(CommWorld& world, int rank);

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_.size()); }
  CommWorld& world() const { return *world_; }
  /// World rank of communicator rank r.
  int world_rank(int r) const { return members_[static_cast<std::size_t>(r)]; }

  /// Typed send of trivially-copyable elements.
  template <typename T>
  void send(int dst, long tag, std::span<const T> data, const std::string& phase) {
    static_assert(std::is_trivially_copyable_v<T>);
    world_->send(world_rank(rank_), world_rank(dst), stamp(tag),
                 std::as_bytes(data), phase);
  }

  /// Posted receive; the payload comes back from Request::wait() as raw
  /// bytes — convert with payload_as<T>().
  Request irecv(int src, long tag) {
    return world_->irecv(world_rank(rank_), world_rank(src), stamp(tag));
  }

  /// Reinterpret a wait()ed payload as a vector of trivially-copyable T.
  template <typename T>
  static std::vector<T> payload_as(std::vector<std::byte> raw) {
    static_assert(std::is_trivially_copyable_v<T>);
    SAGNN_CHECK(raw.size() % sizeof(T) == 0);
    std::vector<T> out(raw.size() / sizeof(T));
    // Zero-byte messages are legal (empty halo); memcpy's pointer args
    // must not be null even then.
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// Typed receive; returns the payload reinterpreted as T.
  template <typename T>
  std::vector<T> recv(int src, long tag) {
    return payload_as<T>(world_->recv(world_rank(rank_), world_rank(src), stamp(tag)));
  }

  /// Dissemination barrier over this communicator. All members must call it
  /// the same number of times (standard collective semantics).
  void barrier();

  /// Split into sub-communicators without communication: `color_of` must be
  /// a pure function agreed on by every member (it is evaluated locally for
  /// all ranks). Members keep their relative order within a color.
  Comm split(const std::function<int(int)>& color_of) const;

 private:
  Comm() = default;

  /// Tags are namespaced by communicator id so concurrent operations on
  /// different communicators never match each other's messages — including
  /// pending requests, since stamping happens when the request is posted.
  /// The id is folded to 20 bits; collisions across *simultaneously live*
  /// comms are avoided by deriving child ids from (parent id, split
  /// sequence, color). Ids wrap modulo 2^64 (deep split chains); the fold
  /// reads them as signed, which every id that fits a long keeps as is.
  long stamp(long tag) const {
    SAGNN_CHECK(tag >= 0 && tag < kTagSpace);
    return (static_cast<long>(comm_id_) % (1L << 20)) * kTagSpace + tag;
  }

  static constexpr long kTagSpace = 1L << 30;
  static constexpr long kBarrierTagBase = 1L << 28;

  CommWorld* world_ = nullptr;
  std::vector<int> members_;
  int rank_ = -1;
  std::uint64_t comm_id_ = 0;
  long barrier_epoch_ = 0;
  /// Advanced by the (logically const) split() so sibling splits get
  /// distinct ids.
  mutable std::uint64_t split_seq_ = 0;
};

/// User tags passed to Comm::send/recv must stay below this bound.
inline constexpr long kUserTagLimit = 1L << 24;

}  // namespace sagnn

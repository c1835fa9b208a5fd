#pragma once
// The simulated message-passing runtime.
//
// CommWorld owns one mailbox per rank; a Comm is a view of a subset of
// ranks (like an MPI communicator / NCCL clique). The runtime is
// request-based: isend/irecv return Request handles and wait()/waitall()
// complete them, exactly the MPI_Isend/Irecv/Wait idiom the pipelined
// SpMM schedules are written in. Blocking send is isend without the
// handle; blocking recv reserves its slot and calls the same wait_recv as
// Request::wait(), so there is a single matching path.
//
// Semantics:
//   * Sends are eager: isend deep-copies the payload into the receiver's
//     mailbox immediately and its Request is complete on return. Progress
//     therefore never depends on the sender again — it is driven entirely
//     by the receiver's mailbox.
//   * Matching is deterministic per (source, tag): the k-th POSTED receive
//     for a (src, tag) pair completes with the k-th SENT message of that
//     pair, regardless of the order the requests are waited in. Posting
//     order, not wait order, defines the stream — which is what keeps
//     chunked pipelines bitwise reproducible.
//   * Abort-safe: when a rank fails, Cluster calls abort() and every
//     pending wait (current or future) resolves to AbortedError instead of
//     deadlocking. Destroying an unwaited receive releases its slot in the
//     (src, tag) stream without corrupting later matches (no leak).
//   * wait() on an already-completed or empty handle is a typed
//     RequestError, never undefined behavior.
//   * One waiter per mailbox: a rank is one thread, so only the owner ever
//     blocks on its mailbox. A second thread that tries to block there
//     while the owner is blocked gets a typed Error.
//
// Cost per message: each mailbox keeps one stream per (src, tag) — next
// arrival seq, next posted seq, arrived-but-unclaimed messages — so isend,
// irecv and recv each cost one hash lookup, and a Request keeps its stream
// for wait() and abandon. A blocked receiver records the one slot it
// awaits, and isend wakes it only when it deposits (or a lossy link parks)
// that slot. Apart from lossy-link retry deadlines, the runtime reads the
// clock only inside Request::wait(&stats), on entry and on completion, to
// measure WaitStats::blocked: irecv, isend and blocking recv never touch it.
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
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "simcomm/traffic.hpp"

namespace sagnn {

class FaultPlan;

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

/// Handle for one in-flight nonblocking operation. Move-only; exactly one
/// wait() per handle. Destroying a pending receive abandons its slot in
/// the (src, tag) stream safely (the matching message, arrived or future,
/// is dropped; later posted receives keep their positions).
class Request {
 public:
  Request() = default;
  Request(Request&& other) noexcept { move_from(other); }
  Request& operator=(Request&& other) noexcept {
    if (this != &other) {
      release();
      move_from(other);
    }
    return *this;
  }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;
  ~Request() { release(); }

  /// True if this handle holds a not-yet-waited operation.
  bool valid() const { return state_ == State::kPending; }

  /// Complete the operation. Receives return the payload bytes (and block
  /// until the matching message arrives); sends return an empty vector
  /// immediately (eager runtime). Throws AbortedError if the world aborts
  /// while pending, RequestError on double-wait or an empty handle. When
  /// `stats` is non-null it receives the blocked time of this wait.
  std::vector<std::byte> wait(WaitStats* stats = nullptr);

 private:
  friend class CommWorld;
  enum class State : std::uint8_t { kEmpty, kPending, kDone };
  enum class Kind : std::uint8_t { kSend, kRecv };

  Request(CommWorld* world, Kind kind, comm_detail::Mailbox* box,
          comm_detail::Stream* stream, int src, long tag, std::uint64_t seq)
      : world_(world),
        state_(State::kPending),
        kind_(kind),
        box_(box),
        stream_(stream),
        src_(src),
        tag_(tag),
        seq_(seq) {}

  void move_from(Request& other) {
    world_ = other.world_;
    state_ = other.state_;
    kind_ = other.kind_;
    box_ = other.box_;
    stream_ = other.stream_;
    src_ = other.src_;
    tag_ = other.tag_;
    seq_ = other.seq_;
    other.world_ = nullptr;
    other.state_ = State::kEmpty;
  }
  void release();

  CommWorld* world_ = nullptr;
  State state_ = State::kEmpty;
  Kind kind_ = Kind::kSend;
  /// Receives keep their mailbox and stream so wait() skips the lookup.
  comm_detail::Mailbox* box_ = nullptr;
  comm_detail::Stream* stream_ = nullptr;
  int src_ = -1;
  long tag_ = 0;
  std::uint64_t seq_ = 0;
};

class CommWorld {
 public:
  explicit CommWorld(int size);
  ~CommWorld();

  int size() const { return size_; }
  TrafficRecorder& traffic() { return traffic_; }
  const TrafficRecorder& traffic() const { return traffic_; }

  /// Nonblocking matched send: copies `data` into dst's mailbox, records
  /// the bytes under `phase`, and returns an (already complete — sends are
  /// eager) Request.
  Request isend(int src, int dst, long tag, std::span<const std::byte> data,
                const std::string& phase);

  /// Nonblocking matched receive: reserves the next slot of the (src, tag)
  /// stream at post time and returns the pending Request.
  Request irecv(int me, int src, long tag);

  /// Blocking matched send — isend without keeping the handle.
  void send(int src, int dst, long tag, std::span<const std::byte> data,
            const std::string& phase);

  /// Blocking receive of the message with matching (src, tag): reserves
  /// the next slot of the stream like irecv() and claims it through the
  /// same wait_recv as Request::wait(), without reading the clock.
  std::vector<std::byte> recv(int me, int src, long tag);

  /// Wake every blocked receiver with AbortedError (called by Cluster when
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
  /// recv(): claim slot `seq` of the (src, tag) `stream` in `box`, blocking
  /// until it arrives. `lock` holds box's mutex on entry and exit. The clock is
  /// read only when `stats` is non-null.
  std::vector<std::byte> wait_recv(std::unique_lock<std::mutex>& lock,
                                   comm_detail::Mailbox& box,
                                   comm_detail::Stream& stream, int src, long tag,
                                   std::uint64_t seq, WaitStats* stats);
  /// Request destructor path: drop the slot without corrupting the stream.
  void abandon_recv(comm_detail::Mailbox& box, comm_detail::Stream& stream,
                    int src, long tag, std::uint64_t seq);

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

/// Wait on every request in order; returns the payloads (empty vectors for
/// sends). When `accumulated` is non-null the per-request blocked times
/// are summed into it. If the world aborts mid-batch, every
/// remaining handle is resolved to AbortedError too (no stream slot is
/// left to be abandoned against the torn-down world) and the AbortedError
/// is rethrown.
std::vector<std::vector<std::byte>> waitall(std::span<Request> requests,
                                            WaitStats* accumulated = nullptr);

/// Consume every still-pending request of an ABORTED world, swallowing the
/// AbortedError each wait raises (immediate — aborted waits never block).
/// Batch primitives call this before surfacing the abort so no destructor
/// abandons a slot against the torn-down stream.
void resolve_aborted(std::span<Request> requests);

/// A communicator: an ordered subset of world ranks plus this thread's
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

  /// Typed nonblocking send (eager: the Request is complete on return).
  template <typename T>
  Request isend(int dst, long tag, std::span<const T> data,
                const std::string& phase) {
    static_assert(std::is_trivially_copyable_v<T>);
    return world_->isend(world_rank(rank_), world_rank(dst), stamp(tag),
                         std::as_bytes(data), phase);
  }

  /// Nonblocking receive; the payload comes back from Request::wait() as
  /// raw bytes — convert with payload_as<T>().
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

  /// Receive into a preallocated span (size must match exactly).
  template <typename T>
  void recv_into(int src, long tag, std::span<T> out) {
    auto raw = world_->recv(world_rank(rank_), world_rank(src), stamp(tag));
    SAGNN_REQUIRE(raw.size() == out.size_bytes(), "recv_into size mismatch");
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
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

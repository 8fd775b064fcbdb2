// Serving envelope: the one typed request shape that crosses every layer of
// the serving fabric (LoadGen -> Router -> node scheduler -> vFPGA) and the
// matching typed completion travelling back.
//
// Before this existed every test and harness hand-rolled the same sequence —
// GetMem, WriteBuffer, SgEntry, Invoke, ReadBuffer — with slightly different
// conventions for sizes and error handling. The envelope names the contract
// once: a request is (tenant, kernel, payload view, deadline, priority), an
// execution is "stage the payload, run the kernel, read the response", and a
// completion carries the typed OpStatus plus the per-hop timestamps the
// latency accounting needs. The payload rides as an axi::BufferView so a
// request forwarded router -> node is a refcount bump, not a copy.

#ifndef SRC_RUNTIME_SERVING_H_
#define SRC_RUNTIME_SERVING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/axi/buffer.h"
#include "src/net/rpc.h"
#include "src/runtime/cthread.h"
#include "src/sim/bytes.h"
#include "src/sim/time.h"

namespace coyote {
namespace runtime {
namespace serving {

using sim::FoldBytes;
using sim::FoldU64;
using sim::HashBytes;
using sim::kFnvOffset;

// The request envelope. `id` is stamped by whoever owns the request's
// lifecycle (the Router in a fabric run, the test in a direct call);
// `submitted_at` is stamped at admission so every later hop can account
// latency against one origin.
struct ServingRequest {
  uint64_t id = 0;
  uint32_t tenant = 0;
  std::string kernel;         // kernel the request must run on
  axi::BufferView payload;    // zero-copy input view
  uint64_t response_bytes = 0;  // bytes read back; 0 = payload size
  sim::TimePs deadline = 0;     // absolute simulated deadline; 0 = none
  uint32_t priority = 0;        // larger = more urgent
  // Placement hint stamped by the routing tier (the region on the chosen
  // node whose resident kernel matches); -1 leaves placement to the node.
  int32_t region_hint = -1;
  sim::TimePs submitted_at = 0;
  uint32_t retries = 0;  // bumped when the router re-routes after a node death
};

// The typed completion. Exactly one per request, whatever happened to it —
// admission shed, routing failure, quarantine abort, deadline, or success.
struct ServingCompletion {
  uint64_t id = 0;
  uint32_t tenant = 0;
  OpStatus status = OpStatus::kPending;
  uint32_t node = 0;
  int32_t region = -1;
  sim::TimePs submitted_at = 0;
  sim::TimePs completed_at = 0;
  // FNV-1a over the response bytes; zero for requests that never executed.
  // With an echo-style kernel this equals the payload hash, making every
  // completion an end-to-end data-integrity witness.
  uint64_t response_hash = 0;
};

inline uint64_t ResponseBytes(const ServingRequest& req) {
  return req.response_bytes != 0 ? req.response_bytes : req.payload.size();
}

// `req`'s completion with `status`, stamped `now`; response_hash stays zero.
inline ServingCompletion CompletionFor(const ServingRequest& req, OpStatus status, uint32_t node,
                                       int32_t region, sim::TimePs now) {
  ServingCompletion c;
  c.id = req.id;
  c.tenant = req.tenant;
  c.status = status;
  c.node = node;
  c.region = region;
  c.submitted_at = req.submitted_at;
  c.completed_at = now;
  return c;
}

// --- CYRP codecs (src/net/rpc.h framing), one encode/decode pair per frame ----
// A decoder validates the whole frame before it returns anything: on false,
// nothing in it may be acted on.

// Router -> node request batch. The frame carries each request's metadata;
// the payloads ride beside it as views (the wire charges for both).
inline std::vector<uint8_t> EncodeBatch(uint32_t node, const std::vector<ServingRequest>& batch) {
  net::rpc::FrameWriter w;
  w.U32(node);
  w.U32(static_cast<uint32_t>(batch.size()));
  for (const ServingRequest& r : batch) {
    w.U64(r.id);
    w.U32(r.tenant);
    w.Str(r.kernel);
    w.U64(r.payload.size());
    w.U64(r.response_bytes);
    w.U64(r.deadline);
    w.U32(r.priority);
    w.I32(r.region_hint);
    w.U64(r.submitted_at);
    w.U32(r.retries);
  }
  return w.Finish(net::rpc::MsgType::kRequestBatch);
}

// Fails unless the frame is addressed to `node`, holds one record per view in
// `payloads`, and every record decodes with a payload_len equal to its view.
inline bool DecodeBatch(const std::vector<uint8_t>& frame, uint32_t node,
                        const std::vector<axi::BufferView>& payloads,
                        std::vector<ServingRequest>* out) {
  net::rpc::FrameReader r(frame);
  bool ok = r.ok() && r.type() == net::rpc::MsgType::kRequestBatch && r.U32() == node &&
            r.U32() == payloads.size();
  out->assign(ok ? payloads.size() : 0, ServingRequest{});
  for (size_t i = 0; i < out->size(); ++i) {
    ServingRequest& req = (*out)[i];
    req.id = r.U64();
    req.tenant = r.U32();
    req.kernel = r.Str();
    ok &= r.U64() == payloads[i].size();  // payload_len
    req.response_bytes = r.U64();
    req.deadline = r.U64();
    req.priority = r.U32();
    req.region_hint = r.I32();
    req.submitted_at = r.U64();
    req.retries = r.U32();
    req.payload = payloads[i];
  }
  ok = ok && r.ok() && r.AtEnd();
  if (!ok) {
    out->clear();
  }
  return ok;
}

// Node -> router completion. The decoder rejects any status outside kOk..kShed.
inline std::vector<uint8_t> EncodeCompletion(const ServingCompletion& c) {
  net::rpc::FrameWriter w;
  w.U64(c.id);
  w.U32(c.tenant);
  w.U8(static_cast<uint8_t>(c.status));
  w.U32(c.node);
  w.I32(c.region);
  w.U64(c.submitted_at);
  w.U64(c.completed_at);
  w.U64(c.response_hash);
  return w.Finish(net::rpc::MsgType::kCompletion);
}

inline bool DecodeCompletion(const std::vector<uint8_t>& frame, ServingCompletion* out) {
  net::rpc::FrameReader r(frame);
  if (!r.ok() || r.type() != net::rpc::MsgType::kCompletion) {
    return false;
  }
  out->id = r.U64();
  out->tenant = r.U32();
  const uint8_t status = r.U8();
  out->status = static_cast<OpStatus>(status);
  out->node = r.U32();
  out->region = r.I32();
  out->submitted_at = r.U64();
  out->completed_at = r.U64();
  out->response_hash = r.U64();
  return r.ok() && r.AtEnd() && status >= static_cast<uint8_t>(OpStatus::kOk) &&
         status <= static_cast<uint8_t>(OpStatus::kShed);
}

// Node -> router liveness beacon; the decoder wants it to come from `node`.
inline std::vector<uint8_t> EncodeHeartbeat(uint32_t node, uint64_t seq, sim::TimePs sent_at) {
  net::rpc::FrameWriter w;
  w.U32(node);
  w.U64(seq);
  w.U64(sent_at);
  return w.Finish(net::rpc::MsgType::kHeartbeat);
}

inline bool DecodeHeartbeat(const std::vector<uint8_t>& frame, uint32_t node, uint64_t* seq) {
  net::rpc::FrameReader r(frame);
  if (!r.ok() || r.type() != net::rpc::MsgType::kHeartbeat || r.U32() != node) {
    return false;
  }
  *seq = r.U64();
  r.U64();  // sent_at
  return r.ok() && r.AtEnd();
}

// Stages the payload into `src_vaddr` and invokes the kernel op. Async: the
// terminal status arrives through the CThread's completion callback — the
// shard-safe path the fabric's node executors use.
inline CThread::Task StageAndInvoke(CThread* t, uint64_t src_vaddr, uint64_t dst_vaddr,
                                    const ServingRequest& req) {
  t->WriteBuffer(src_vaddr, req.payload.data(), req.payload.size());
  SgEntry sg;
  sg.local = {.src_addr = src_vaddr,
              .src_len = req.payload.size(),
              .dst_addr = dst_vaddr,
              .dst_len = ResponseBytes(req)};
  return t->Invoke(Oper::kLocalTransfer, sg);
}

// Reads the response back and hashes it (the completion's integrity witness).
inline uint64_t HashResponse(CThread* t, uint64_t dst_vaddr, uint64_t len) {
  std::vector<uint8_t> out(len);
  t->ReadBuffer(dst_vaddr, out.data(), len);
  return HashBytes(out.data(), out.size());
}

// Synchronous one-shot execution on an existing cThread: allocates transfer
// buffers, stages, waits (nests an engine run, like InvokeSync — host-side
// only, never inside a shard callback) and reads the response back. This is
// the single invocation path the tests use in place of the former ad-hoc
// GetMem/WriteBuffer/SgEntry/InvokeSync/ReadBuffer blocks.
inline ServingCompletion ExecuteSync(CThread* t, const ServingRequest& req,
                                     std::vector<uint8_t>* response = nullptr) {
  ServingCompletion done =
      CompletionFor(req, OpStatus::kPending, 0, static_cast<int32_t>(t->vfpga_id()), 0);
  const uint64_t resp_len = ResponseBytes(req);
  const uint64_t src = t->GetMem({Alloc::kHpf, req.payload.size()});
  const uint64_t dst = t->GetMem({Alloc::kHpf, resp_len});
  const CThread::Task task = StageAndInvoke(t, src, dst, req);
  t->Wait(task);
  done.status = t->Status(task);
  done.completed_at = t->device().engine().Now();
  if (done.status == OpStatus::kOk) {
    std::vector<uint8_t> out(resp_len);
    t->ReadBuffer(dst, out.data(), out.size());
    done.response_hash = HashBytes(out.data(), out.size());
    if (response != nullptr) {
      *response = std::move(out);
    }
  }
  t->FreeMem(src);
  t->FreeMem(dst);
  return done;
}

}  // namespace serving
}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_SERVING_H_

//! Request, response, and admission-control types.
//!
//! Admission is the serving system's trust boundary: everything after it
//! assumes a well-formed request, so [`admit`] must reject every input the
//! model code would choke on — and nothing else. The generation-path
//! bugfixes (typed [`zero_model::GenerateError`]) are the second line of
//! defense; admission is the first.
//!
//! Under open-loop load there is a second admission gate: even a
//! well-formed request is *shed* with [`ServeError::Overloaded`] when its
//! predicted queue delay exceeds the configured SLO — saturation degrades
//! by rejecting work deterministically instead of queueing without bound
//! (see `engine::predicted_queue_delay`).

use zero_model::ModelConfig;

/// One inference request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeRequest {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// Prompt token ids (must be non-empty and in-vocab).
    pub prompt: Vec<u32>,
    /// Number of tokens to generate (greedy). Must be ≥ 1, and
    /// `prompt.len() + max_new_tokens − 1` decoder positions must fit the
    /// context window.
    pub max_new_tokens: usize,
    /// Batch step at which the request reaches the server. Arrivals are
    /// expressed in *batch-step time* (not wall-clock) so every SPMD rank
    /// observes the identical schedule — the load generator
    /// (`serve::load`) fills this in; closed-loop callers leave it 0.
    pub arrival_step: u64,
}

impl ServeRequest {
    /// A request arriving at step 0 (the closed-loop default).
    pub fn new(id: u64, prompt: Vec<u32>, max_new_tokens: usize) -> ServeRequest {
        ServeRequest { id, prompt, max_new_tokens, arrival_step: 0 }
    }

    /// Sets the arrival step (builder style, for open-loop schedules).
    pub fn at_step(mut self, step: u64) -> ServeRequest {
        self.arrival_step = step;
        self
    }
}

/// Why a request was rejected at admission. Typed, recoverable, and
/// deterministic: every rank rejects the same request for the same reason
/// without consuming any schedule step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The prompt is empty — there is nothing to condition on.
    EmptyPrompt,
    /// A prompt token id is outside the model's vocabulary.
    TokenOutOfVocab {
        /// The offending token id.
        token: u32,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// `prompt.len() + max_new_tokens − 1` exceeds the context window:
    /// the request could never finish without exhausting the position
    /// table. (The final generated token is returned, never fed back, so
    /// it needs no position of its own — a request that exactly fills
    /// the table is admitted.)
    PromptTooLong {
        /// Prompt length in tokens.
        prompt_len: usize,
        /// Requested new tokens.
        max_new_tokens: usize,
        /// The model's context window.
        seq: usize,
    },
    /// `max_new_tokens` is zero — the request asks for nothing.
    NoTokensRequested,
    /// The server is saturated: the predicted queue delay at arrival
    /// exceeds the configured SLO, so the request is shed instead of
    /// queued without bound. Deterministic — every rank predicts the
    /// identical delay from the identical scheduler state.
    Overloaded {
        /// Steps the request was predicted to wait before admission.
        predicted_delay_steps: u64,
        /// The configured admission SLO, in batch steps.
        slo_steps: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::EmptyPrompt => write!(f, "empty prompt"),
            ServeError::TokenOutOfVocab { token, vocab } => {
                write!(f, "prompt token {token} outside the vocabulary (0..{vocab})")
            }
            ServeError::PromptTooLong {
                prompt_len,
                max_new_tokens,
                seq,
            } => write!(
                f,
                "prompt of {prompt_len} + {max_new_tokens} new tokens needs \
                 {} positions but the window has {seq}",
                prompt_len + max_new_tokens - 1
            ),
            ServeError::NoTokensRequested => write!(f, "max_new_tokens must be at least 1"),
            ServeError::Overloaded { predicted_delay_steps, slo_steps } => write!(
                f,
                "overloaded: predicted queue delay {predicted_delay_steps} steps \
                 exceeds the {slo_steps}-step SLO"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// A completed request: the greedy continuation plus scheduling metrics.
///
/// Every field except `latency_ns` is a deterministic function of the
/// request list and serving configuration, identical across ranks
/// (`ServeReport::check_ranks_agree` compares them); `latency_ns` is
/// rank-local wall clock and is scrubbed from the comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeResponse {
    /// The request's id.
    pub id: u64,
    /// The generated tokens (`max_new_tokens` of them, greedy argmax).
    pub tokens: Vec<u32>,
    /// Batch step at which the request arrived (its `arrival_step`).
    pub arrival_step: u64,
    /// Batch step at which a KV slot was assigned.
    pub admitted_step: u64,
    /// Batch step at which the final token was emitted.
    pub completion_step: u64,
    /// Arrival → completion, in batch steps (`completion − arrival`):
    /// the deterministic latency every rank agrees on.
    pub latency_steps: u64,
    /// Batch steps the request waited in the queue
    /// (`admitted_step − arrival_step`).
    pub queue_steps: u64,
    /// Batch steps that fed prompt rows without emitting a token. Always
    /// 0: the step that feeds the prompt also emits the first token, so
    /// it is counted in `decode_steps`.
    pub prefill_steps: u64,
    /// Prompt rows computed in the admission step
    /// (`prompt_len − prefix_reused_rows`).
    pub prefill_rows: u64,
    /// Prompt positions served from shared or copied prefix-cache blocks
    /// instead of being recomputed (0 without paged prefix reuse).
    pub prefix_reused_rows: u64,
    /// Batch steps spent emitting tokens (`max_new_tokens`) — the
    /// request's whole service time.
    pub decode_steps: u64,
    /// End-to-end wall-clock latency in nanoseconds, measured from the
    /// request's *enqueue* (arrival) to its completion — not from world
    /// start, which under staggered arrivals inflated every latency by
    /// the request's arrival offset. Rank-local; excluded from the
    /// cross-rank agreement check.
    pub latency_ns: u64,
}

/// Terminal state of one request, in submission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The request ran to completion.
    Completed(ServeResponse),
    /// The request was rejected at admission.
    Rejected {
        /// The request's id.
        id: u64,
        /// Why it was rejected.
        error: ServeError,
    },
}

impl ServeOutcome {
    /// The completed response, if any.
    pub fn response(&self) -> Option<&ServeResponse> {
        match self {
            ServeOutcome::Completed(r) => Some(r),
            ServeOutcome::Rejected { .. } => None,
        }
    }

    /// The rejection, if any.
    pub fn rejection(&self) -> Option<ServeError> {
        match self {
            ServeOutcome::Completed(_) => None,
            ServeOutcome::Rejected { error, .. } => Some(*error),
        }
    }
}

/// Validates a request against a model's shape. `Ok` means the request
/// can run to completion without any generation-path error: the prompt is
/// non-empty and in-vocab, and the `prompt_len − 1 + max_new_tokens`
/// decoder positions the request actually consumes fit the window. The
/// final generated token is returned to the caller and never fed back,
/// so it needs no position — a request with
/// `prompt_len + max_new_tokens − 1 == seq` exactly fills the position
/// table and is admitted (the old bound rejected it).
pub fn admit(req: &ServeRequest, model: &ModelConfig) -> Result<(), ServeError> {
    if req.prompt.is_empty() {
        return Err(ServeError::EmptyPrompt);
    }
    if req.max_new_tokens == 0 {
        return Err(ServeError::NoTokensRequested);
    }
    if let Some(&bad) = req.prompt.iter().find(|&&t| t as usize >= model.vocab) {
        return Err(ServeError::TokenOutOfVocab {
            token: bad,
            vocab: model.vocab,
        });
    }
    if req.prompt.len() + req.max_new_tokens - 1 > model.seq {
        return Err(ServeError::PromptTooLong {
            prompt_len: req.prompt.len(),
            max_new_tokens: req.max_new_tokens,
            seq: model.seq,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelConfig {
        ModelConfig {
            vocab: 16,
            seq: 12,
            hidden: 8,
            layers: 1,
            heads: 2,
        }
    }

    fn req(prompt: Vec<u32>, max_new: usize) -> ServeRequest {
        ServeRequest::new(1, prompt, max_new)
    }

    #[test]
    fn well_formed_requests_pass() {
        assert!(admit(&req(vec![0, 5, 15], 4), &model()).is_ok());
        assert!(admit(&req(vec![1; 8], 4), &model()).is_ok());
    }

    #[test]
    fn exactly_filling_the_position_table_is_admitted() {
        // Regression: prompt_len + max_new − 1 == seq uses every position
        // exactly once; the old `prompt_len + max_new > seq` bound shed
        // these even though the decoder finishes them without error.
        let m = model();
        assert!(admit(&req(vec![1; 9], 4), &m).is_ok(), "9 + 4 − 1 = 12 = seq fits");
        assert!(admit(&req(vec![1; 12], 1), &m).is_ok(), "full-window prompt, one token");
        // …and one more token than the table holds is still rejected.
        assert_eq!(
            admit(&req(vec![1; 9], 5), &m),
            Err(ServeError::PromptTooLong { prompt_len: 9, max_new_tokens: 5, seq: 12 })
        );
        assert_eq!(
            admit(&req(vec![1; 13], 1), &m),
            Err(ServeError::PromptTooLong { prompt_len: 13, max_new_tokens: 1, seq: 12 })
        );
    }

    #[test]
    fn malformed_requests_get_the_right_typed_error() {
        let m = model();
        assert_eq!(admit(&req(vec![], 4), &m), Err(ServeError::EmptyPrompt));
        assert_eq!(
            admit(&req(vec![1, 16], 4), &m),
            Err(ServeError::TokenOutOfVocab { token: 16, vocab: 16 })
        );
        assert_eq!(
            admit(&req(vec![1; 10], 4), &m),
            Err(ServeError::PromptTooLong {
                prompt_len: 10,
                max_new_tokens: 4,
                seq: 12
            })
        );
        assert_eq!(admit(&req(vec![1], 0), &m), Err(ServeError::NoTokensRequested));
    }

    #[test]
    fn arrival_steps_default_to_zero_and_build_fluently() {
        let r = ServeRequest::new(3, vec![1, 2], 2);
        assert_eq!(r.arrival_step, 0);
        assert_eq!(r.at_step(17).arrival_step, 17);
    }
}

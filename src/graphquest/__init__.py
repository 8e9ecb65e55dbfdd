"""graphquest: self-correcting knowledge-graph reasoning for LLM QA.

An engine that answers natural-language questions by exploring a
knowledge graph one hop at a time under language-model guidance, keeps
everything it has seen in an explicit memory, and backtracks to earlier
entities when the evidence it gathered cannot answer the question.
"""

package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col}
import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph

/** Algorithm 1 expressed in pure relational (Catalyst) terms.
  *
  * The set-valued matrix `T` is the relation `T(nt, src, dst)` — exactly
  * the paper's "A ∈ T[i,j]" as rows. One closure step `T ← T ∪ (T·T)` is:
  *
  * {{{
  *   T' = T ∪ π_{a, l.src, r.dst}(
  *          T l ⋈_{l.dst = r.src} T r ⋈_{(l.nt, r.nt) = (b, c)} rules(a, b, c))
  * }}}
  *
  * followed by DISTINCT — the relational reading of the Boolean matrix
  * multiply-and-union. Iterated to fixpoint (row count stable; the
  * relation is monotone, so count equality is set equality).
  *
  * This is the engine whose output is checked against the DuckDB oracle:
  * the result is a plain DataFrame `(nt, src, dst)`.
  */
final class SparkDataFrameCFPQ(spark: SparkSession) extends CFPQEngine {
  override val name = "SparkDF"

  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    val (df, iterations) = solveDF(graph.toDF(spark), grammar)
    val rels = df.collect()
      .groupBy(_.getString(0))
      .map { case (nt, rows) => nt -> rows.map(r => (r.getInt(1), r.getInt(2))).toSet }
    CFPQResult(rels, iterations)
  }

  /** Evaluate over an edges DataFrame (src INT, label STRING, dst INT);
    * returns the final relation `(nt, src, dst)` and the iteration count.
    */
  def solveDF(edges: DataFrame, grammar: CnfGrammar): (DataFrame, Int) = {
    import spark.implicits._
    val termDf = spark.createDataset(grammar.term).toDF("nt", "lab")
    val rulesDf = broadcast(spark.createDataset(grammar.binary).toDF("a", "b", "c"))
    val init = edges
      .join(broadcast(termDf), col("label") === col("lab"))
      .select(col("nt"), col("src"), col("dst"))
      .distinct()
    // A row is one cell.
    val (t, iterations) = Closure.run(Materialize(init)(_ => 1L))(_.count, _.release()) { cur =>
      val l = cur.data.as("l")
      val r = cur.data.as("r")
      val prod = l
        .join(rulesDf, col("l.nt") === col("b"))
        .join(r, col("l.dst") === col("r.src") && col("r.nt") === col("c"))
        .select(col("a").as("nt"), col("l.src").as("src"), col("r.dst").as("dst"))
      Materialize(cur.data.union(prod).distinct())(_ => 1L)
    }
    (t.data, iterations)
  }
}

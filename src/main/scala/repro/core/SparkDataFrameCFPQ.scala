package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
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
  *
  * Each iteration's frame is rebuilt from the persisted rows of the last
  * ([[Materialize]]), not from `Dataset.localCheckpoint()`. A local
  * checkpoint truncates lineage but *carries over* the optimized plan's
  * statistics into the resulting `LogicalRDD`; in this iterated self-join
  * those `sizeInBytes` estimates compound multiplicatively (iteration k's
  * plan multiplies iteration k−1's several times), so the BigInt estimate
  * grows to ~3^k digits and Catalyst ends up spending minutes multiplying
  * million-digit integers (observed on the wine graph at ~12 iterations).
  * A frame over an RDD starts from default statistics every time.
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
    def frame(p: Materialize.Pinned[Row]): DataFrame = spark.createDataset(p.data)(init.encoder)
    // A row is one cell.
    val (t, iterations) = Closure.run(Materialize(init.rdd)(_ => 1L))(_.count, _.release()) { p =>
      val cur = frame(p)
      val l = cur.as("l")
      val r = cur.as("r")
      val prod = l
        .join(rulesDf, col("l.nt") === col("b"))
        .join(r, col("l.dst") === col("r.src") && col("r.nt") === col("c"))
        .select(col("a").as("nt"), col("l.src").as("src"), col("r.dst").as("dst"))
      Materialize(cur.union(prod).distinct().rdd)(_ => 1L)
    }
    (frame(t), iterations)
  }
}
